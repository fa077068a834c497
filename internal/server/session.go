package server

import (
	"container/list"
	"sync"

	"fx10/internal/constraints"
	"fx10/internal/engine"
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
	lang string // canonical front-end name ("fx10", "x10", "go")
	// base is the last served result, nil until the first analyze
	// completes. Its program, solution and M are the program cache's,
	// shared read-only, so keeping it costs no copy. It outlives the
	// cache entry when the cache evicts the program: the session can
	// still edit it, while /v1/query answers 404 for it.
	base *engine.Result
}

// maxSessions bounds the live delta sessions; a new session past it
// evicts the least recently used one.
const maxSessions = 128

type sessionStore struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	order *list.List // front = most recently used; values are sessionEntry
}

type sessionEntry struct {
	id string
	s  *session
}

func newSessionStore() *sessionStore {
	return &sessionStore{
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
// The checks happen under the store lock, so a caller never observes
// a session whose configuration it did not agree to.
func (st *sessionStore) get(id string, mode constraints.Mode, lang string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, exists := st.m[id]; exists {
		s := e.Value.(sessionEntry).s
		if s.mode != mode || s.lang != lang {
			return nil, false
		}
		st.order.MoveToFront(e)
		return s, true
	}
	s := &session{mode: mode, lang: lang}
	st.m[id] = st.order.PushFront(sessionEntry{id: id, s: s})
	for len(st.m) > maxSessions {
		oldest := st.order.Back()
		st.order.Remove(oldest)
		delete(st.m, oldest.Value.(sessionEntry).id)
	}
	return s, true
}

// len is the number of live sessions.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}
