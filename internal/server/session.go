package server

import (
	"container/list"
	"sync"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Delta sessions: /v1/delta is an editor-shaped protocol. A session
// holds the last analyzed version of one program; each request sends
// the full edited source and the server re-solves only the dirty
// method closure against the session's base (engine.AnalyzeDelta),
// then advances the base. Edits within one session are serialized by
// the session mutex — an editor sends keystroke-ordered revisions —
// while different sessions proceed in parallel. The store is a
// bounded LRU: an evicted session is not an error, just a cold start
// (the next delta request becomes a full analyze).

type session struct {
	mu   sync.Mutex
	mode constraints.Mode
	lang string         // canonical front-end name ("fx10", "x10", "go")
	base *engine.Result // nil until the first analyze completes
}

// deltaBase is the copy of res a session keeps as its delta base:
// everything AnalyzeDelta reads (Program, Sys, Sol), without the
// per-request Env and M — one dense pair set per method, never read
// from a base. res itself is left alone: flight joiners share it.
func deltaBase(res *engine.Result) *engine.Result {
	b := *res
	b.Env, b.M = nil, nil
	return &b
}

type sessionStore struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element
	order *list.List // front = most recently used; values are sessionEntry
}

type sessionEntry struct {
	id string
	s  *session
}

func newSessionStore(capacity int) *sessionStore {
	if capacity < 1 {
		// A zero or negative capacity would evict each session the
		// moment it is inserted — a store that silently forgets
		// everything. Clamp to the smallest store that can function.
		capacity = 1
	}
	return &sessionStore{
		cap:   capacity,
		m:     make(map[string]*list.Element),
		order: list.New(),
	}
}

// get returns the session for id, creating it with the given mode and
// language on first use. A session is keyed by (id, mode, lang) in
// effect: requesting an existing id under a different mode or front
// end returns ok=false — the base result held by the session was
// solved for its configuration's lowered program, so serving it to a
// request of another configuration would mix two different analyses
// (a delta against a base lowered by another front end is undefined).
// created reports a fresh session; evicted is the number of sessions
// dropped to make room. The checks happen under the store lock, so a
// caller never observes a session whose configuration it did not
// agree to.
func (st *sessionStore) get(id string, mode constraints.Mode, lang string) (s *session, created bool, evicted int, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, exists := st.m[id]; exists {
		s = e.Value.(sessionEntry).s
		if s.mode != mode || s.lang != lang {
			return nil, false, 0, false
		}
		st.order.MoveToFront(e)
		return s, false, 0, true
	}
	s = &session{mode: mode, lang: lang}
	st.m[id] = st.order.PushFront(sessionEntry{id: id, s: s})
	for len(st.m) > st.cap {
		oldest := st.order.Back()
		st.order.Remove(oldest)
		delete(st.m, oldest.Value.(sessionEntry).id)
		evicted++
	}
	return s, true, evicted, true
}

// len is the number of live sessions.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// queryIndex maps analyzed program hashes to the immutable data
// /v1/query needs: the MHP pair set and the label-name table. Entries
// are added by analyze and delta responses and the index is a bounded
// LRU; /v1/query on an evicted (or never-seen) hash is a 404 telling
// the client to analyze first.
type queryIndex struct {
	mu    sync.Mutex
	cap   int
	m     map[flightKey]*list.Element
	order *list.List // values are indexEntry
}

type indexEntry struct {
	key flightKey
	val *indexed
}

// indexed is one analyzed program, read-only after construction.
type indexed struct {
	program *syntax.Program
	m       *intset.PairSet
}

func newQueryIndex(capacity int) *queryIndex {
	if capacity < 1 {
		capacity = 1 // see newSessionStore: cap 0 would evict on insert
	}
	return &queryIndex{
		cap:   capacity,
		m:     make(map[flightKey]*list.Element),
		order: list.New(),
	}
}

func (qi *queryIndex) put(key flightKey, val *indexed) {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	if e, ok := qi.m[key]; ok {
		qi.order.MoveToFront(e)
		return
	}
	qi.m[key] = qi.order.PushFront(indexEntry{key: key, val: val})
	for len(qi.m) > qi.cap {
		oldest := qi.order.Back()
		qi.order.Remove(oldest)
		delete(qi.m, oldest.Value.(indexEntry).key)
	}
}

func (qi *queryIndex) get(key flightKey) (*indexed, bool) {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	e, ok := qi.m[key]
	if !ok {
		return nil, false
	}
	qi.order.MoveToFront(e)
	return e.Value.(indexEntry).val, true
}
