#!/bin/sh
# Telemetry-plane scrape smoke: run the example roster through `serve`
# twice — once with the exporter armed (--listen 0 + event log) and once
# unarmed — scrape the live plane mid-run with `snowplow top --once
# --json --check` (valid Prometheus exposition carrying the scheduler and
# per-tenant families, well-shaped /health and /tenants), validate the
# exported trace/timeseries with `stats --check`, and assert the armed
# run changed nothing: the machine-readable --summary-json documents and
# every tenant snapshot must be byte-identical across the two runs.
#
# The roster is expected to contain a snowplow tenant and a fault plan
# may be supplied, so the scrape also carries the funnel + breaker
# families — the telemetry reads that are easiest to get wrong (they
# sample every tenant's lane at every barrier, where a mutating read
# would perturb the very bytes the identity check pins).
#
# Usage: serve_scrape_smoke.sh CLI_EXE TENANTS_JSON [FAULT_PLAN]
set -eu

cli="$1"
roster="$2"
fault_plan="${3:-}"
plan_args=""
if [ -n "$fault_plan" ]; then
  plan_args="--fault-plan $fault_plan"
fi
# One directory per roster: @ci runs the rules for different rosters
# concurrently, and a shared directory let one run wipe the other's
# files.
tmp="${TMPDIR:-/tmp}/snowplow-ci-scrape-$(basename "$roster" .json)"
rm -rf "$tmp"
mkdir -p "$tmp"

echo "== armed run (exporter + event log) =="
# shellcheck disable=SC2086
"$cli" serve --tenants "$roster" --workers 2 $plan_args \
  --snapshot-root "$tmp/armed" \
  --listen 0 --listen-port-file "$tmp/port" \
  --events "$tmp/events.jsonl" \
  --summary-json "$tmp/armed-summary.json" \
  --trace "$tmp/armed-trace.json" \
  --timeseries "$tmp/armed-timeseries.jsonl" \
  >"$tmp/armed.out" 2>&1 &
serve_pid=$!

# The port file appears once the exporter is bound, just before the
# scheduler starts admitting slices.
tries=0
while [ ! -s "$tmp/port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 600 ]; then
    echo "FAIL: serve never wrote its port file" >&2
    cat "$tmp/armed.out" >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "FAIL: serve exited before binding its exporter" >&2
    cat "$tmp/armed.out" >&2 || true
    exit 1
  fi
  sleep 0.2
done
port="$(cat "$tmp/port")"

echo "== live scrape (snowplow top --once --json --check) =="
# --retry-for also covers the window before the scheduler's first
# barrier publication fills in the scheduler/tenant metric families.
"$cli" top --once --json --check --ascii \
  --connect "127.0.0.1:$port" --retry-for 60 >"$tmp/top.json"

if ! wait "$serve_pid"; then
  echo "FAIL: armed serve run failed" >&2
  cat "$tmp/armed.out" >&2 || true
  exit 1
fi

echo "== scrape carries the per-tenant / funnel / breaker families =="
grep -q 'snowplow_tenant_state' "$tmp/top.json"
grep -q 'snowplow_tenant_executions' "$tmp/top.json"
if [ -n "$fault_plan" ]; then
  grep -q 'snowplow_funnel_queue_depth' "$tmp/top.json"
  grep -q 'snowplow_breaker_state' "$tmp/top.json"
fi

echo "== structured event log carries the run =="
grep -q '"kind":"scheduler.start"' "$tmp/events.jsonl"
grep -q '"kind":"scheduler.finish"' "$tmp/events.jsonl"

echo "== exported telemetry artifacts are structurally valid =="
quarantine_span=""
if [ -n "$fault_plan" ]; then
  # The fault plan kills an epoch, so the failure-handling span must be
  # in the trace (the tenant retries and the run still exits 0 above).
  quarantine_span="--expect-span scheduler.quarantine"
fi
# shellcheck disable=SC2086
"$cli" stats --check \
  --trace "$tmp/armed-trace.json" \
  --timeseries "$tmp/armed-timeseries.jsonl" \
  --expect-span scheduler.slice --expect-span shard.epoch \
  --expect-span pool.task $quarantine_span

echo "== unarmed run (no exporter, no event log) =="
# shellcheck disable=SC2086
"$cli" serve --tenants "$roster" --workers 2 $plan_args \
  --snapshot-root "$tmp/unarmed" \
  --summary-json "$tmp/unarmed-summary.json" >"$tmp/unarmed.out" 2>&1

echo "== byte identity: armed == unarmed =="
cmp "$tmp/armed-summary.json" "$tmp/unarmed-summary.json"
diff -r "$tmp/armed" "$tmp/unarmed"

echo "serve scrape smoke: OK (scraped 127.0.0.1:$port)"
