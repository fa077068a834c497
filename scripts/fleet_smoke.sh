#!/usr/bin/env bash
# Fleet smoke test: three real fx10d replicas behind the
# consistent-hash router, all built with -race. Drive mixed load
# through the router, kill one replica mid-load, and assert (a) zero
# failed requests and zero cross-backend report divergences and (b)
# the router's /metrics shows the dead replica down and reroutes
# counted. Used by CI and `make fleet-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${FX10D_FLEET_PORT:-8720}"
P1="$((BASE_PORT))"; P2="$((BASE_PORT + 1))"; P3="$((BASE_PORT + 2))"
RPORT="$((BASE_PORT + 3))"
TMP="$(mktemp -d)"
BIN="${TMP}/fx10d"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$TMP" 2>/dev/null || true
}
trap cleanup EXIT

go build -race -o "$BIN" ./cmd/fx10d

# The in-process fleet scenario first: 3 replicas + router + mid-load
# kill, byte-identity asserted end to end — all under -race.
"$BIN" loadgen -scenario fleet

wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  curl -sf "http://127.0.0.1:$1/healthz" >/dev/null
}

# The same topology as real processes over TCP: three daemons, the
# router in front.
for port in "$P1" "$P2" "$P3"; do
  "$BIN" -addr "127.0.0.1:${port}" &
  PIDS+=($!)
done
for port in "$P1" "$P2" "$P3"; do wait_healthy "$port"; done

"$BIN" route -addr "127.0.0.1:${RPORT}" \
  -backends "http://127.0.0.1:${P1},http://127.0.0.1:${P2},http://127.0.0.1:${P3}" \
  -health-every 200ms &
PIDS+=($!)
wait_healthy "$RPORT"

# Warm every replica directly, with the cross-backend divergence check
# armed: -backends + -strict fails if any replica's report bytes
# differ from the others'.
"$BIN" loadgen \
  -backends "http://127.0.0.1:${P1},http://127.0.0.1:${P2},http://127.0.0.1:${P3}" \
  -c 4 -duration 3s -mix analyze=2,query=6,batch=1 -strict

# Mixed load through the router, killing replica 2 mid-burst. The
# loadgen run and the kill race on purpose; -strict demands that every
# request still lands 2xx/429.
"$BIN" loadgen -addr "127.0.0.1:${RPORT}" -c 4 -duration 6s \
  -mix analyze=3,query=6,batch=1 -strict &
LG=$!
sleep 2
kill -TERM "${PIDS[1]}"
wait "${PIDS[1]}" 2>/dev/null || true
wait "$LG"

# The router must have noticed the death and rerouted.
RMETRICS="$(curl -sf "http://127.0.0.1:${RPORT}/metrics")"
DOWN="$(echo "$RMETRICS" | grep -c "127.0.0.1:${P2}" || true)"
if [ "$DOWN" -eq 0 ]; then
  echo "router /metrics does not mention the killed replica" >&2
  echo "$RMETRICS" >&2
  exit 1
fi
REROUTES="$(echo "$RMETRICS" | grep -o '"reroutes": *[0-9]*' | grep -o '[0-9]*$' | head -1)"
if [ -z "$REROUTES" ] || [ "$REROUTES" -eq 0 ]; then
  echo "router recorded no reroutes after a replica was killed" >&2
  echo "$RMETRICS" >&2
  exit 1
fi

echo "fleet smoke OK (reroutes after kill: $REROUTES)"
