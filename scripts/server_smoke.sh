#!/usr/bin/env bash
# Server smoke test: build and start a real fx10d, then drive every
# endpoint over TCP with curl and check each answer: /healthz, one
# /v1/analyze, a /v1/query on the returned programHash, one /v1/batch,
# a /v1/delta session (open, then one edit), /metrics, and finally a
# SIGTERM drain that must exit 0. Used by CI and `make serversmoke`.
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

# expect WHAT BODY FRAGMENT... fails unless BODY holds every FRAGMENT.
expect() {
  local what="$1" body="$2"
  shift 2
  for frag in "$@"; do
    grep -qF -- "$frag" <<<"$body" || fail "${what}: missing ${frag} in: ${body}"
  done
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

expect metrics "$(curl -sSf "${BASE}/metrics")" \
  '"analyze": 1' '"query": 2' '"batch": 1' '"delta": 2' '"solves"' '"requestLatencyMs"'

# Graceful drain: SIGTERM must let fx10d finish and exit 0.
kill -TERM "$DAEMON"
wait "$DAEMON" || fail "drain: fx10d exited with status $?"
trap 'rm -rf "$TMP"' EXIT
echo "server smoke OK"
