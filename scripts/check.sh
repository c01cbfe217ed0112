#!/usr/bin/env bash
# One-command verification: build and test the release configuration, then
# the ASan+UBSan configuration.
#
#   scripts/check.sh            # release + asan-ubsan
#   scripts/check.sh --quick    # release only, skipping the `fuzz` label
#
# Exits non-zero on the first failing build or test.
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *) echo "usage: $0 [--quick]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

echo "=== release build ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build -j "$jobs"

# Observability smoke: a profiled run must produce parseable artifacts of
# the documented schema (docs/observability.md).
echo "=== profile smoke ==="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./build/examples/lss_run examples/specs/funnel.lss --cycles 200 \
  --profile="$smoke_dir/trace.json" --metrics="$smoke_dir/metrics.json" \
  --quiet >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/trace.json" "$smoke_dir/metrics.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace.get("traceEvents")
assert isinstance(events, list) and events, "trace has no traceEvents"
assert all("ph" in e for e in events), "trace event missing ph"
metrics = json.load(open(sys.argv[2]))
assert metrics.get("schema") == "liberty.metrics", metrics.get("schema")
assert metrics.get("schema_version") == 1, metrics.get("schema_version")
for key in ("meta", "counters", "scalars", "summaries"):
    assert key in metrics, "metrics missing " + key
print("profile smoke ok: %d trace events, %d counters"
      % (len(events), len(metrics["counters"])))
PY
else
  echo "python3 not found; skipped JSON schema validation"
fi

# Optimizer golden-stats: every example spec must produce identical
# statistics at -O0 and at the default -O2 (docs/optimizer.md).  This is
# the cheap end of the bit-identity guarantee; the oracle and fuzz sweep
# prove it in depth over traces and state digests.
echo "=== optimizer -O0 vs -O2 stats ==="
for spec in examples/specs/*.lss; do
  ./build/examples/lss_run "$spec" --cycles 500 --opt-level 0 \
    | grep -v '^opt:' >"$smoke_dir/stats-o0.txt"
  ./build/examples/lss_run "$spec" --cycles 500 --opt-level 2 \
    | grep -v '^opt:' >"$smoke_dir/stats-o2.txt"
  if ! diff -u "$smoke_dir/stats-o0.txt" "$smoke_dir/stats-o2.txt"; then
    echo "optimizer changed observable stats on $spec" >&2
    exit 1
  fi
done
echo "optimizer stats identical on $(ls examples/specs/*.lss | wc -l) specs"

# Codegen smoke: the static and compiled schedulers must reproduce the
# dynamic scheduler's trace and state digests on every example spec, and
# the disassembler must produce a listing (docs/codegen.md).  The oracle
# and fuzz sweep prove trace-level identity in depth; this is the fast
# end-to-end check.
echo "=== static and compiled vs dynamic digest ==="
for spec in examples/specs/*.lss; do
  dyn="$(./build/examples/lss_run "$spec" --cycles 500 --scheduler dyn \
    --digest --quiet | grep '^digest:')"
  for sched in static compiled; do
    other="$(./build/examples/lss_run "$spec" --cycles 500 \
      --scheduler "$sched" --digest --quiet | grep '^digest:')"
    if [ "$dyn" != "$other" ]; then
      echo "$sched scheduler diverged on $spec" >&2
      echo "  dynamic: $dyn" >&2
      echo "  $sched: $other" >&2
      exit 1
    fi
  done
done
./build/examples/lss_run examples/specs/funnel.lss --dump-bytecode \
  | grep -q '== resolve ('
echo "static and compiled digests identical on $(ls examples/specs/*.lss | wc -l) specs"

# The flagship rack resolves hook-free under both analyzed schedulers and
# carries every payload type the digests fold: a 2x2 rack must land on the
# dynamic -O0 digests under every scheduler at -O0 and -O2.
echo "=== rack 2x2 digest across schedulers ==="
rack_ref="$(./build/examples/rack_sim --cols 2 --rows 2 --scheduler dyn \
  --opt-level 0 --digest --quiet | grep '^digest:')"
for sched in dyn static compiled; do
  for level in 0 2; do
    got="$(./build/examples/rack_sim --cols 2 --rows 2 --scheduler "$sched" \
      --opt-level "$level" --digest --quiet | grep '^digest:')"
    if [ "$rack_ref" != "$got" ]; then
      echo "rack 2x2 diverged under $sched -O$level" >&2
      echo "  dynamic -O0: $rack_ref" >&2
      echo "  $sched -O$level: $got" >&2
      exit 1
    fi
  done
done
echo "rack 2x2 digests identical: $rack_ref"

# Run-to-run determinism: no scheduling decision reads the clock, so two
# runs of one spec must report identical work counters.  Timing lives
# under `scalars` (profile.*) and is left out.
echo "=== -O2 counters repeat across runs ==="
if command -v python3 >/dev/null 2>&1; then
  for spec in examples/specs/*.lss; do
    for run in 1 2; do
      ./build/examples/lss_run "$spec" --cycles 500 --scheduler compiled \
        --opt-level 2 --metrics="$smoke_dir/counters-$run.json" --quiet \
        >/dev/null
    done
    python3 - "$smoke_dir/counters-1.json" "$smoke_dir/counters-2.json" \
      "$spec" <<'PY'
import json, sys
a = json.load(open(sys.argv[1]))["counters"]
b = json.load(open(sys.argv[2]))["counters"]
if a != b:
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    sys.exit("counters differ between runs on %s: %s" % (sys.argv[3], diff))
PY
  done
  echo "counters repeat on $(ls examples/specs/*.lss | wc -l) specs"
else
  echo "python3 not found; skipped the counter comparison"
fi

# Resilience smoke: inject -> detect -> roll back -> finish bit-identical
# (docs/resilience.md).  A drop_ack fault on the funnel's sink feed must be
# flagged by the watchdog (exit 1), and the rollback supervisor must mask
# it and finish with the exact fault-free trace and state digests.
echo "=== resilience smoke ==="
cat >"$smoke_dir/faults.json" <<'JSON'
{"schema":"liberty.faultplan","version":1,"seed":7,"faults":[
 {"class":"drop_ack","connection":13,"from_cycle":60}
]}
JSON
./build/examples/lss_run examples/specs/funnel.lss --cycles 200 \
  --digest --quiet >"$smoke_dir/clean.out"
clean_digest="$(grep '^digest:' "$smoke_dir/clean.out")"
if ./build/examples/lss_run examples/specs/funnel.lss --cycles 200 \
  --faults "$smoke_dir/faults.json" --watchdog --quiet \
  >"$smoke_dir/detect.out" 2>&1; then
  echo "watchdog failed to flag the injected fault" >&2
  exit 1
fi
grep -q 'protocol: kernel-owned ack disagrees' "$smoke_dir/detect.out"
./build/examples/lss_run examples/specs/funnel.lss --cycles 200 \
  --faults "$smoke_dir/faults.json" --watchdog --recover rollback \
  --checkpoint-every 32 --digest --quiet >"$smoke_dir/recover.out" 2>&1
grep -q 'rollback to checkpoint' "$smoke_dir/recover.out"
recovered_digest="$(grep '^digest:' "$smoke_dir/recover.out")"
if [ "$clean_digest" != "$recovered_digest" ]; then
  echo "rollback recovery diverged from the fault-free run:" >&2
  echo "  clean:     $clean_digest" >&2
  echo "  recovered: $recovered_digest" >&2
  exit 1
fi
echo "resilience smoke ok: detected, rolled back, $recovered_digest"

# Crash-recovery smoke: run with durable checkpoints, SIGKILL the process
# mid-run, resume from the newest checkpoint, and require the digest of an
# uninterrupted run — then tear the newest checkpoint and require the
# resume to skip it with a diagnostic and still land on the same digest
# (docs/resilience.md, "Durable checkpoints").
echo "=== crash-recovery smoke ==="
ck_dir="$smoke_dir/ckpts"
clean_run="$(./build/examples/lss_run examples/specs/pipeline.lss \
  --cycles 400 --digest --quiet | grep '^digest:')"
kill_status=0
./build/examples/lss_run examples/specs/pipeline.lss --cycles 400 \
  --checkpoint-dir "$ck_dir" --checkpoint-every 50 --kill-at 230 \
  --digest --quiet >/dev/null 2>&1 || kill_status=$?
if [ "$kill_status" -ne 137 ]; then
  echo "--kill-at 230 did not SIGKILL the run (exit $kill_status)" >&2
  exit 1
fi
resumed="$(./build/examples/lss_run examples/specs/pipeline.lss \
  --cycles 400 --checkpoint-dir "$ck_dir" --checkpoint-every 50 --resume \
  --digest --quiet 2>/dev/null | grep '^digest:')"
if [ "$clean_run" != "$resumed" ]; then
  echo "resumed run diverged from the uninterrupted run:" >&2
  echo "  clean:   $clean_run" >&2
  echo "  resumed: $resumed" >&2
  exit 1
fi
newest="$(ls "$ck_dir"/ckpt-*.lck | sort | tail -1)"
dd if=/dev/null of="$newest" bs=1 seek=21 2>/dev/null  # torn write
resumed2="$(./build/examples/lss_run examples/specs/pipeline.lss \
  --cycles 400 --checkpoint-dir "$ck_dir" --checkpoint-every 50 --resume \
  --digest --quiet 2>"$smoke_dir/resume2.err" | grep '^digest:')"
grep -q 'torn write' "$smoke_dir/resume2.err"
if [ "$clean_run" != "$resumed2" ]; then
  echo "resume after a torn newest checkpoint diverged:" >&2
  echo "  clean:   $clean_run" >&2
  echo "  resumed: $resumed2" >&2
  exit 1
fi
echo "crash-recovery smoke ok: killed at 230, resumed, $resumed"

# The structural CPU keeps its pipeline latches and shared core state in
# its checkpoints: killed mid-program, it must resume to the uninterrupted
# halt cycle and digests.
cpu_ck_dir="$smoke_dir/cpu-ckpts"
cpu_clean="$(./build/examples/lss_run examples/specs/cpu.lss \
  --scheduler static --digest --quiet | grep '^digest:')"
kill_status=0
./build/examples/lss_run examples/specs/cpu.lss --scheduler static \
  --checkpoint-dir "$cpu_ck_dir" --checkpoint-every 100 --kill-at 300 \
  --digest --quiet >/dev/null 2>&1 || kill_status=$?
if [ "$kill_status" -ne 137 ]; then
  echo "cpu.lss --kill-at 300 did not SIGKILL the run (exit $kill_status)" >&2
  exit 1
fi
./build/examples/lss_run examples/specs/cpu.lss --scheduler static \
  --checkpoint-dir "$cpu_ck_dir" --checkpoint-every 100 --resume \
  --digest --quiet >"$smoke_dir/cpu-resume.out" 2>/dev/null
grep -q 'completed 732 cycles' "$smoke_dir/cpu-resume.out"
cpu_resumed="$(grep '^digest:' "$smoke_dir/cpu-resume.out")"
if [ "$cpu_clean" != "$cpu_resumed" ]; then
  echo "cpu.lss resumed run diverged from the uninterrupted run:" >&2
  echo "  clean:   $cpu_clean" >&2
  echo "  resumed: $cpu_resumed" >&2
  exit 1
fi
echo "cpu crash-recovery smoke ok: killed at 300, resumed, $cpu_resumed"

# The 2x2 rack carries what the two specs above do not: directory caches,
# OoO cores with data caches and predictor tables, and memory arrays.
# Killed at cycle 1700, it must resume from its cycle-1500 checkpoint to
# the uninterrupted digests under the static scheduler.
rack_ck_dir="$smoke_dir/rack-ckpts"
rack_ck_args=(--cols 2 --rows 2 --cycles 3000 --scheduler static --digest
  --quiet)
rack_ck_clean="$(./build/examples/rack_sim "${rack_ck_args[@]}" \
  | grep '^digest:')"
kill_status=0
./build/examples/rack_sim "${rack_ck_args[@]}" --checkpoint-dir "$rack_ck_dir" \
  --checkpoint-every 500 --kill-at 1700 >/dev/null 2>&1 || kill_status=$?
if [ "$kill_status" -ne 137 ]; then
  echo "rack_sim --kill-at 1700 did not SIGKILL the run (exit $kill_status)" >&2
  exit 1
fi
./build/examples/rack_sim "${rack_ck_args[@]}" --checkpoint-dir "$rack_ck_dir" \
  --checkpoint-every 500 --resume >"$smoke_dir/rack-resume.out" \
  2>"$smoke_dir/rack-resume.err"
grep -q 'resumed from ckpt-000000001500.lck' "$smoke_dir/rack-resume.err"
rack_ck_resumed="$(grep '^digest:' "$smoke_dir/rack-resume.out")"
if [ "$rack_ck_clean" != "$rack_ck_resumed" ]; then
  echo "rack 2x2 resumed run diverged from the uninterrupted run:" >&2
  echo "  clean:   $rack_ck_clean" >&2
  echo "  resumed: $rack_ck_resumed" >&2
  exit 1
fi
echo "rack crash-recovery smoke ok: killed at 1700, resumed, $rack_ck_resumed"

# Rack-scenario smoke: the flagship full-system scenario (docs/scenarios.md)
# must land on identical trace + state digests under the dynamic and
# compiled schedulers, and its metrics export must carry the rack.*
# aggregates in the documented liberty.metrics schema.
echo "=== rack scenario smoke ==="
rack_args=(--cols 2 --rows 1 --cores 1 --no-ooo --requests 2 --cycles 3000
  --quiet --digest)
rack_dyn="$(./build/examples/rack_sim "${rack_args[@]}" --scheduler dyn \
  | grep '^digest:')"
rack_comp="$(./build/examples/rack_sim "${rack_args[@]}" --scheduler compiled \
  --metrics "$smoke_dir/rack-metrics.json" | grep '^digest:')"
if [ "$rack_dyn" != "$rack_comp" ]; then
  echo "rack scenario diverged between dynamic and compiled:" >&2
  echo "  dynamic:  $rack_dyn" >&2
  echo "  compiled: $rack_comp" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/rack-metrics.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
assert m.get("schema") == "liberty.metrics", m.get("schema")
assert m["counters"]["rack.requests_completed"] > 0, "no requests completed"
lat = m["summaries"]["rack.latency"]
for q in ("p50", "p95", "p99"):
    assert q in lat, "rack.latency missing " + q
for s in ("rack.throughput_rpkc", "rack.router_total_pj",
          "rack.peak_temperature_c"):
    assert s in m["scalars"], "missing scalar " + s
print("rack smoke ok: %d requests, p99=%g cycles"
      % (m["counters"]["rack.requests_completed"], lat["p99"]))
PY
fi
echo "rack scenario smoke ok: $rack_dyn"

echo "=== release tests ==="
if [ "$quick" -eq 1 ]; then
  ctest --test-dir build --output-on-failure -j "$jobs" -LE fuzz
  exit 0
fi
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== asan+ubsan build ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIBERTY_SANITIZE=address+undefined >/dev/null
cmake --build build-asan -j "$jobs"
echo "=== asan+ubsan tests ==="
ctest --test-dir build-asan --output-on-failure -j "$jobs" -LE fuzz

echo "all checks passed"
