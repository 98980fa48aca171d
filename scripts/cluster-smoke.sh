#!/usr/bin/env bash
# cluster-smoke: end-to-end exercise of the coordinator + worker
# cluster with real processes. Starts one pure coordinator
# (-workers=0 -state-dir), two impeccable-worker processes, submits
# three campaigns, kills one worker with SIGKILL mid-run, and asserts
# every job still reaches "done" (the killed worker's job re-enters
# the queue via lease expiry and reruns on the survivor). A second
# scenario floods one tenant and asserts the surviving worker still
# serves a light tenant's job fairly (DRR), with the tenant-labeled
# metric families on /metrics. Along the way it scrapes /metrics —
# mid-run, after the kill, and after the flood — runs each scrape
# through metrics-lint (the 0.0.4 grammar checker), and fails unless
# lease_expiries_total shows the revoked lease.
#
# Environment:
#   STATE_DIR   coordinator state dir (default ./cluster-state);
#               emptied first, so a rerun never reopens an earlier
#               attempt's jobs; an empty value or / is refused.
#               Uploaded as a CI artifact on failure
#   ADDR        coordinator listen address (default 127.0.0.1:18080)
set -euo pipefail

STATE_DIR=${STATE_DIR-cluster-state}
if [ -z "$STATE_DIR" ] || [ "$(realpath -m -- "$STATE_DIR")" = / ]; then
  echo "cluster-smoke: refusing to empty STATE_DIR='$STATE_DIR'" >&2
  exit 2
fi
ADDR=${ADDR:-127.0.0.1:18080}
BASE="http://$ADDR"
BIN=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf -- "$BIN"
}
trap cleanup EXIT

echo "== building binaries"
# The long-lived processes run under the race detector: the smoke's
# kill/retry interleavings are exactly where a data race would hide.
go build -race -o "$BIN/impeccable-server" ./cmd/impeccable-server
go build -race -o "$BIN/impeccable-worker" ./cmd/impeccable-worker
go build -o "$BIN/metrics-lint" ./cmd/metrics-lint

# scrape_metrics NAME: fetch /metrics, save it beside the logs, and
# fail the run if the exposition does not parse.
scrape_metrics() {
  local name=$1 out="$STATE_DIR/metrics-$1.prom"
  curl -sf "$BASE/metrics" >"$out" || { echo "scrape $name failed"; exit 1; }
  "$BIN/metrics-lint" <"$out" || { echo "scrape $name fails grammar check"; exit 1; }
  echo "   scrape $name: $(wc -l <"$out") lines, valid exposition"
}

# metric_value FILE NAME: print a series' value (0 if absent).
metric_value() {
  awk -v name="$2" '$1 == name { print $2; found=1 } END { if (!found) print 0 }' "$1"
}

echo "== starting coordinator (zero in-process workers) on an empty $STATE_DIR"
rm -rf -- "$STATE_DIR"
mkdir -p "$STATE_DIR"
"$BIN/impeccable-server" -addr "$ADDR" -workers 0 -state-dir "$STATE_DIR" \
  -lease-ttl 3s -tenant 'flood,weight=1' -tenant 'light,weight=1' \
  -preempt-after 30s >"$STATE_DIR/coordinator.log" 2>&1 &
PIDS+=($!)

for _ in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null; then break; fi
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "coordinator never came up"; exit 1; }

echo "== starting two workers"
"$BIN/impeccable-worker" -server "$BASE" -id smoke-w1 -ttl 3s -poll 200ms \
  >"$STATE_DIR/worker1.log" 2>&1 &
W1=$!
PIDS+=("$W1")
"$BIN/impeccable-worker" -server "$BASE" -id smoke-w2 -ttl 3s -poll 200ms \
  >"$STATE_DIR/worker2.log" 2>&1 &
PIDS+=($!)

echo "== submitting three campaigns"
for seed in 1 2 3; do
  curl -sf -X POST "$BASE/api/v1/campaigns" -d '{
    "target": "PLPro", "library_size": 1200, "train_size": 240,
    "cg_count": 3, "top_compounds": 2, "outliers_per": 2,
    "seed": '"$seed"', "fast_protocols": true
  }' >/dev/null
done

echo "== waiting for worker 1 to hold a lease, then killing it"
# Only a lease worker 1 holds can expire when it dies: killing it while
# worker 2 holds the only lease would leave nothing to expire.
for _ in $(seq 1 100); do
  leased=$(curl -sf "$BASE/api/v1/campaigns?state=leased" \
    | jq '[.[] | select(.worker == "smoke-w1")] | length')
  if [ "$leased" -gt 0 ]; then break; fi
  sleep 0.2
done
[ "$leased" -gt 0 ] || { echo "worker 1 never got a lease"; exit 1; }

echo "== scraping /metrics mid-run"
scrape_metrics midrun
grants=$(metric_value "$STATE_DIR/metrics-midrun.prom" impeccable_lease_grants_total)
[ "${grants%.*}" -gt 0 ] || { echo "lease_grants_total is 0 with a job leased"; exit 1; }

kill -9 "$W1"
echo "killed worker 1 (pid $W1) with $leased job(s) leased"

echo "== waiting for the killed worker's lease to expire"
for _ in $(seq 1 100); do
  expiries=$(curl -sf "$BASE/metrics" | awk '$1 == "impeccable_lease_expiries_total" { print $2 }')
  if [ "${expiries%.*}" -gt 0 ] 2>/dev/null; then break; fi
  sleep 0.3
done

echo "== scraping /metrics after the kill"
scrape_metrics post-kill
expiries=$(metric_value "$STATE_DIR/metrics-post-kill.prom" impeccable_lease_expiries_total)
requeues=$(metric_value "$STATE_DIR/metrics-post-kill.prom" impeccable_lease_requeues_total)
if [ "${expiries%.*}" -eq 0 ]; then
  echo "lease_expiries_total is still 0 after SIGKILLing a lease holder"
  exit 1
fi
echo "   lease expiries: $expiries, requeues: $requeues"

echo "== waiting for all three jobs to finish"
deadline=$(( $(date +%s) + 600 ))
while :; do
  done_n=$(curl -sf "$BASE/api/v1/campaigns?state=done" | jq length)
  total=$(curl -sf "$BASE/api/v1/campaigns" | jq length)
  echo "   $done_n/$total done"
  if [ "$done_n" -eq 3 ]; then break; fi
  bad=$(curl -sf "$BASE/api/v1/campaigns" \
    | jq '[.[] | select(.state == "failed" or .state == "canceled")] | length')
  [ "$bad" -eq 0 ] || { echo "jobs failed/canceled"; curl -s "$BASE/api/v1/campaigns" | jq .; exit 1; }
  [ "$(date +%s)" -lt "$deadline" ] || { echo "timed out"; curl -s "$BASE/api/v1/campaigns" | jq .; exit 1; }
  sleep 2
done

echo "== final state"
curl -s "$BASE/api/v1/campaigns" | jq '[.[] | {id, state, worker}]'
curl -s "$BASE/healthz" | jq .
scrape_metrics final

echo "== two-tenant flood: 5 jobs from 'flood', then 1 from 'light'"
# Only worker 2 survives, so grants are strictly sequential: DRR must
# interleave the light tenant's single job with the flood instead of
# draining the flood's backlog first.
for seed in 11 12 13 14 15; do
  curl -sf -X POST "$BASE/api/v1/campaigns" -d '{
    "target": "PLPro", "tenant": "flood", "library_size": 300,
    "train_size": 60, "cg_count": 3, "top_compounds": 2,
    "outliers_per": 2, "seed": '"$seed"', "fast_protocols": true
  }' >/dev/null
done
# The light tenant rides the X-Tenant header, the legacy body untouched.
curl -sf -X POST "$BASE/api/v1/campaigns" -H "X-Tenant: light" -d '{
  "target": "PLPro", "priority": 1, "library_size": 300, "train_size": 60,
  "cg_count": 3, "top_compounds": 2, "outliers_per": 2,
  "seed": 20, "fast_protocols": true
}' >/dev/null

echo "== waiting for the light tenant's job"
deadline=$(( $(date +%s) + 600 ))
while :; do
  light_done=$(curl -sf "$BASE/api/v1/campaigns?tenant=light&state=done" | jq length)
  if [ "$light_done" -eq 1 ]; then break; fi
  [ "$(date +%s)" -lt "$deadline" ] || { echo "light tenant starved"; curl -s "$BASE/api/v1/campaigns" | jq .; exit 1; }
  sleep 1
done
flood_done=$(curl -sf "$BASE/api/v1/campaigns?tenant=flood&state=done" | jq length)
echo "   light tenant done with $flood_done/5 flood jobs finished"
# Fairness: the light job must not have waited behind the whole flood.
if [ "$flood_done" -gt 2 ]; then
  echo "DRR failed: $flood_done flood jobs finished before the light tenant's one"
  exit 1
fi

echo "== waiting for the flood to drain"
while :; do
  flood_done=$(curl -sf "$BASE/api/v1/campaigns?tenant=flood&state=done" | jq length)
  if [ "$flood_done" -eq 5 ]; then break; fi
  [ "$(date +%s)" -lt "$deadline" ] || { echo "flood never drained"; exit 1; }
  sleep 2
done

echo "== scraping /metrics after the flood (tenant families)"
scrape_metrics tenants
for series in \
  'impeccable_tenant_admissions_total{tenant="flood"}' \
  'impeccable_tenant_admissions_total{tenant="light"}' \
  'impeccable_tenant_queue_depth{tenant="flood"}' \
  'impeccable_tenant_funnel_seconds_total{tenant="light"}'; do
  grep -qF "$series" "$STATE_DIR/metrics-tenants.prom" \
    || { echo "series $series missing from /metrics"; exit 1; }
done
flood_admitted=$(metric_value "$STATE_DIR/metrics-tenants.prom" 'impeccable_tenant_admissions_total{tenant="flood"}')
[ "${flood_admitted%.*}" -eq 5 ] || { echo "flood admissions = $flood_admitted, want 5"; exit 1; }

# Every job completed on a surviving worker even though one worker was
# SIGKILLed mid-run, and a flooding tenant never starved a light one:
# the lease protocol and the DRR arbiter did their jobs, and /metrics
# told the story as it happened.
echo "cluster-smoke OK"
