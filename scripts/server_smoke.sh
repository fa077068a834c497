#!/usr/bin/env bash
# Server smoke test: build and start a real fx10d, then drive every
# endpoint over TCP with curl and check each answer: /healthz, one
# /v1/analyze, a /v1/query on the returned programHash, one /v1/batch,
# a /v1/delta session (open, then one edit), an X10 and a Go program
# sent with "language", an unknown language (400) and malformed Go
# (422), /metrics, and finally a SIGTERM drain that must exit 0. Used
# by CI and `make serversmoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${FX10D_PORT:-8710}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
BIN="${TMP}/fx10d"

go build -o "$BIN" ./cmd/fx10d

"$BIN" -addr "127.0.0.1:${PORT}" &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; rm -rf "$TMP"' EXIT

fail() { echo "server smoke: $*" >&2; exit 1; }

# post PATH BODY prints the response body; curl -f fails on non-2xx.
post() { curl -sSf -X POST -H 'Content-Type: application/json' --data "$2" "${BASE}$1"; }

# post_status PATH BODY prints the HTTP status and leaves the response
# body in ${TMP}/body, whatever the status.
post_status() {
  curl -sS -o "${TMP}/body" -w '%{http_code}' -X POST -H 'Content-Type: application/json' --data "$2" "${BASE}$1"
}

# expect WHAT BODY FRAGMENT... fails unless BODY holds every FRAGMENT.
expect() {
  local what="$1" body="$2"
  shift 2
  for frag in "$@"; do
    grep -qF -- "$frag" <<<"$body" || fail "${what}: missing ${frag} in: ${body}"
  done
}

# expect_pair WHAT BODY A B fails unless BODY reports the MHP pair (A, B).
expect_pair() {
  expect "$1" "$(tr -d ' \n' <<<"$2")" "{\"a\":\"$3\",\"b\":\"$4\"}"
}

# Wait for /healthz (the daemon binds fast, but don't race it).
for _ in $(seq 1 50); do
  if curl -sf "${BASE}/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
expect healthz "$(curl -sSf "${BASE}/healthz")" '"status": "ok"'

# W and V run in parallel inside the finish; R runs after it.
PROG='array 4; void main() { F: finish { A: async { W: a[1] = 41; } B: async { V: a[2] = 1; } } R: a[0] = a[1] + 1; }'
EDIT='array 4; void main() { F: finish { A: async { W: a[1] = 41; } B: async { V: a[2] = 1; } } R: a[0] = a[1] + 1; S: skip; }'

ANALYZE="$(post /v1/analyze "{\"source\": \"${PROG}\"}")"
HASH="$(sed -n 's/^  "programHash": "\([0-9a-f]*\)",$/\1/p' <<<"$ANALYZE")"
[ -n "$HASH" ] || fail "analyze: no programHash in: ${ANALYZE}"
expect analyze "$ANALYZE" '"a": "W"' '"b": "V"'

expect query "$(post /v1/query "{\"programHash\": \"${HASH}\", \"a\": \"W\", \"b\": \"V\"}")" '"mhp": true'
expect query "$(post /v1/query "{\"programHash\": \"${HASH}\", \"a\": \"W\", \"b\": \"R\"}")" '"mhp": false'

# One good program (a cache hit by now) and one that fails to parse:
# the batch succeeds and reports the failure in its slot.
expect batch "$(post /v1/batch "{\"programs\": [{\"name\": \"good\", \"source\": \"${PROG}\"}, {\"name\": \"bad\", \"source\": \"void\"}]}")" \
  "\"programHash\": \"${HASH}\"" '"kind": "parse"'

expect delta "$(post /v1/delta "{\"session\": \"smoke\", \"source\": \"${PROG}\"}")" "\"programHash\": \"${HASH}\""
expect delta "$(post /v1/delta "{\"session\": \"smoke\", \"source\": \"${EDIT}\"}")" '"delta": {' '"methodsTotal": 1'

# Other languages go through the same front door: the X10 async's
# call (L2) runs in parallel with main's (L4), the goroutine's call
# (L1) with main's (L3).
X10_PROG='void main() { finish { async { work(); } work(); } } void work() { return; }'
GO_PROG='package main; import \"sync\"; func work() {}; func main() { var wg sync.WaitGroup; wg.Add(1); go func() { defer wg.Done(); work() }(); work(); wg.Wait() }'
expect_pair x10 "$(post /v1/analyze "{\"source\": \"${X10_PROG}\", \"language\": \"x10\"}")" L2 L4
expect_pair go "$(post /v1/analyze "{\"source\": \"${GO_PROG}\", \"language\": \"go\"}")" L1 L3

# An unknown language is a malformed request (400); malformed Go is a
# parse error whose message names the language once.
STATUS="$(post_status /v1/analyze '{"source": "fn main() {}", "language": "rust"}')"
[ "$STATUS" = 400 ] || fail "rust: status ${STATUS}, want 400: $(cat "${TMP}/body")"
expect rust "$(cat "${TMP}/body")" '"kind": "bad_request"' 'unknown language \"rust\"'
STATUS="$(post_status /v1/analyze '{"source": "package main; func main( {", "language": "go"}')"
[ "$STATUS" = 422 ] || fail "malformed go: status ${STATUS}, want 422: $(cat "${TMP}/body")"
expect "malformed go" "$(cat "${TMP}/body")" '"kind": "parse"' '"message": "go: input.go:1:26: expected'

expect metrics "$(curl -sSf "${BASE}/metrics")" \
  '"analyze": 5' '"query": 2' '"batch": 1' '"delta": 2' '"400": 1' '"422": 1' '"solves"' '"requestLatencyMs"'

# Graceful drain: SIGTERM must let fx10d finish and exit 0.
kill -TERM "$DAEMON"
wait "$DAEMON" || fail "drain: fx10d exited with status $?"
trap 'rm -rf "$TMP"' EXIT
echo "server smoke OK"
