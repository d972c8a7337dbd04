#!/usr/bin/env bash
# Local CI: configure, build, and test the release, asan-ubsan, and tsan
# presets. The tsan lane is narrow by design: it builds and runs only the
# threading-sensitive suites (concurrency, plan property, incremental) so
# the sweep stays fast while still exercising every lock, latch, and
# snapshot-publication path under ThreadSanitizer.
#
#   tools/ci.sh            # all three presets
#   tools/ci.sh release    # just one
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(release asan-ubsan tsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

tsan_targets=(hirel_concurrency_test hirel_plan_test hirel_incremental_test)
tsan_filter='ConcurrencyTest|PlanProperty|Incremental'

for preset in "${presets[@]}"; do
  echo "==== ${preset}: configure ===="
  cmake --preset "${preset}"
  if [ "${preset}" = "tsan" ]; then
    echo "==== ${preset}: build (threaded suites) ===="
    cmake --build --preset "${preset}" -j "${jobs}" \
        --target "${tsan_targets[@]}"
    echo "==== ${preset}: test (threaded suites) ===="
    ctest --preset "${preset}" -R "${tsan_filter}"
    continue
  fi
  echo "==== ${preset}: build ===="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==== ${preset}: test ===="
  ctest --preset "${preset}" -j "${jobs}"
  # Each figure binary's stdout, and the knowledge_base example's, must
  # match its committed golden file byte for byte (bench/golden/).
  echo "==== ${preset}: figure reproductions vs bench/golden ===="
  repro_out="$(mktemp)"
  for repro in "build/${preset}"/bench/repro_*; do
    [ -x "${repro}" ] || continue
    name="$(basename "${repro}")"
    echo "---- ${name}"
    "${repro}" > "${repro_out}" || {
      echo "FAIL: ${name}" >&2
      exit 1
    }
    diff -u "bench/golden/${name}.txt" "${repro_out}" || {
      echo "FAIL: ${name} stdout differs from bench/golden/${name}.txt" >&2
      exit 1
    }
  done
  # DERIVE's derived relations through HQL, byte for byte.
  echo "---- example_knowledge_base"
  "build/${preset}/examples/knowledge_base" > "${repro_out}" || {
    echo "FAIL: examples/knowledge_base" >&2
    exit 1
  }
  diff -u bench/golden/example_knowledge_base.txt "${repro_out}" || {
    echo "FAIL: knowledge_base stdout differs from bench/golden/example_knowledge_base.txt" >&2
    exit 1
  }
  rm -f "${repro_out}"

  if [ "${preset}" = "release" ]; then
    # The benchmarks drive graph builds at 10^5 tuples; the build has to
    # finish at that size, not just at unit-test sizes.
    echo "==== ${preset}: 10^5-tuple subsumption-graph build ===="
    "build/${preset}/bench/bench_incremental" \
        --benchmark_filter='BM_BuildSubsumptionGraph/100000' > /dev/null
    # The patched (/1) and rebuilt (/0) arms of the maintenance benchmarks
    # assert how each graph fetch was served and report an error row when
    # it was served the other way; every arm must report a measurement.
    echo "==== ${preset}: patched and rebuilt graph fetches ===="
    for filter in 'BM_MutateThenGetGraph/1000/[01]$' \
        'BM_HqlMutateCountLoop/1000/[01]$'; do
      rows="$("build/${preset}/bench/bench_incremental" \
          --benchmark_filter="${filter}" --benchmark_min_time=0 |
          grep -c '{"bench"' || true)"
      if [ "${rows}" != 2 ]; then
        echo "FAIL: ${filter}: ${rows} of 2 arms reported without error" >&2
        exit 1
      fi
    done
    # The store's footprint on a browse-shaped relation. Byte counts are
    # deterministic, so the gate holds on any host.
    echo "==== ${preset}: browse-shaped store footprint (<= 80 B/tuple) ===="
    footprint="$("build/${preset}/bench/bench_storage" \
        --benchmark_filter='BM_BrowseShapedStorage/10000' |
        grep -o '{"bench".*' |
        sed -n 's/.*"bytes_per_tuple":\([0-9.e+]*\).*/\1/p')"
    if [ -z "${footprint}" ] ||
        ! awk -v b="${footprint}" 'BEGIN { exit !(b <= 80) }'; then
      echo "FAIL: browse-shaped store: '${footprint}' B/tuple, limit 80" >&2
      exit 1
    fi
    echo "browse-shaped store: ${footprint} B/tuple"
    # The MCD closure pairs only items that can share a descendant, so a
    # level-1 select on the 10^4-sku catalogue (about 6x the candidates of
    # a level-2 one) costs roughly linearly more, not quadratically. A
    # ratio of two runs on one host holds on any host.
    echo "==== ${preset}: level-1 vs level-2 catalogue select (<= 10x) ===="
    select_rows="$("build/${preset}/bench/bench_operators" \
        --benchmark_filter='^BM_HierarchicalSelectCatalog/depth:[12]$' |
        grep -o '{"bench".*')"
    select_ns() {
      echo "${select_rows}" |
          sed -n "s/.*\"name\":\"BM_HierarchicalSelectCatalog\/depth:$1\".*\"ns_per_op\":\([0-9.e+]*\).*/\1/p"
    }
    depth1="$(select_ns 1)"
    depth2="$(select_ns 2)"
    if [ -z "${depth1}" ] || [ -z "${depth2}" ] ||
        ! awk -v a="${depth1}" -v b="${depth2}" 'BEGIN { exit !(a <= 10 * b) }'; then
      echo "FAIL: catalogue select depth:1 '${depth1}' ns vs depth:2 '${depth2}' ns, limit 10x" >&2
      exit 1
    fi
    awk -v a="${depth1}" -v b="${depth2}" \
        'BEGIN { printf "catalogue select: depth:1 / depth:2 = %.1fx\n", a / b }'
  fi

  echo "==== ${preset}: observability smoke ===="
  repl="build/${preset}/examples/hql_repl"
  trace_json="$(mktemp)"
  snap_file="$(mktemp -u)"
  diag_json="$(mktemp)"
  diag_dir="$(mktemp -d)"
  smoke="$(mktemp)"
  sed -e "s|__TRACE__|${trace_json}|" -e "s|__SNAP__|${snap_file}|" \
      -e "s|__DIAG__|${diag_json}|" -e "s|__DIAGDIR__|${diag_dir}|" \
      tools/obs_smoke.hql > "${smoke}"
  obs_out="$("${repl}" "${smoke}" < /dev/null)"
  rm -f "${smoke}" "${snap_file}"
  echo "${obs_out}" | grep -q '"message":"slow_query ' || {
    echo "FAIL: no slow-query event in SHOW LOG JSON" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '^# TYPE ' || {
    echo "FAIL: no '# TYPE' lines in SHOW METRICS PROMETHEUS" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '^# HELP ' || {
    echo "FAIL: no '# HELP' lines in SHOW METRICS PROMETHEUS" >&2
    exit 1
  }
  echo "${obs_out}" | grep -Eq '^\| \+ \| telemetry_interval_ms +\| 5 +\|$' || {
    echo "FAIL: no telemetry state in sys.session" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q 'snapshot.save' || {
    echo "FAIL: no snapshot.save wait site in sys.waits" >&2
    exit 1
  }
  # Alert lifecycle: hot_statements trips on the first manual tick, shows
  # up under `severity = ALL warn` (subsumption), degrades the overall
  # health verdict, and resolves after RESET METRICS + one more tick.
  echo "${obs_out}" | grep -q '{"alert":"hot_statements","severity":"warn","state":"firing","metric":"query.statements"' || {
    echo "FAIL: hot_statements alert did not fire in SHOW ALERTS JSON" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '{"component":"overall","verdict":"degraded"' || {
    echo "FAIL: SHOW HEALTH JSON did not report overall degraded while firing" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q '{"alert":"hot_statements","severity":"warn","state":"resolved","metric":"query.statements","value":[0-9]*,"op":">","threshold":3,"for_samples":1,"fires":1,"builtin":"false"}' || {
    echo "FAIL: hot_statements did not resolve after RESET METRICS" >&2
    exit 1
  }
  echo "${obs_out}" | grep -q 'hirel_wait_site_ns_bucket' || {
    echo "FAIL: no per-site wait histograms in SHOW METRICS PROMETHEUS" >&2
    exit 1
  }
  # Every JSON-producing statement emits a line starting with [ or {; each
  # must parse, as must the exported Chrome trace file. Validation uses the
  # in-tree hirel_check binary so this lane always runs — no host python3
  # required (and no silent skip when it is absent).
  check="build/${preset}/tools/hirel_check"
  json_lines=0
  while IFS= read -r json_line; do
    [ -n "${json_line}" ] || continue
    json_lines=$(( json_lines + 1 ))
    printf '%s\n' "${json_line}" | "${check}" json - > /dev/null || {
      echo "FAIL: invalid JSON output: ${json_line:0:80}..." >&2
      exit 1
    }
  done < <(echo "${obs_out}" | grep '^[[{]' || true)
  if [ "${json_lines}" -eq 0 ]; then
    echo "FAIL: observability smoke produced no JSON lines to validate" >&2
    exit 1
  fi
  "${check}" json "${trace_json}" > /dev/null || {
    echo "FAIL: exported trace is not valid JSON" >&2
    exit 1
  }
  "${check}" json "${diag_json}" > /dev/null || {
    echo "FAIL: exported diagnostics bundle is not valid JSON" >&2
    exit 1
  }
  grep -q '"cause":"statement"' "${diag_json}" || {
    echo "FAIL: diagnostics bundle is missing its cause" >&2
    exit 1
  }
  # The fire transition auto-captured exactly one bundle into the
  # diagnostics dir; it must parse and name the alert as its cause.
  captured=("${diag_dir}"/diag.hot_statements.*.json)
  if [ ${#captured[@]} -ne 1 ] || [ ! -f "${captured[0]}" ]; then
    echo "FAIL: expected exactly one auto-captured bundle, got: ${captured[*]}" >&2
    exit 1
  fi
  "${check}" json "${captured[0]}" > /dev/null || {
    echo "FAIL: auto-captured bundle is not valid JSON" >&2
    exit 1
  }
  grep -q '"cause":"alert:hot_statements"' "${captured[0]}" || {
    echo "FAIL: auto-captured bundle is missing its alert cause" >&2
    exit 1
  }
  echo "observability JSON validated (${json_lines} lines + trace + diagnostics bundles)"
  rm -f "${trace_json}" "${diag_json}"
  rm -rf "${diag_dir}"

  echo "==== ${preset}: workload generator smoke ===="
  gen="build/${preset}/tools/gen_workload"
  workload_a="$(mktemp)"
  workload_b="$(mktemp)"
  # --check executes the generated script in-process; the second run (same
  # seed, no --check) must be byte-identical.
  "${gen}" --tuples 120 --depth 3 --fanout 3 --ops 40 --seed 7 --check \
      > "${workload_a}"
  "${gen}" --tuples 120 --depth 3 --fanout 3 --ops 40 --seed 7 \
      > "${workload_b}"
  cmp -s "${workload_a}" "${workload_b}" || {
    echo "FAIL: gen_workload output is not deterministic for a fixed seed" >&2
    exit 1
  }
  rm -f "${workload_a}" "${workload_b}"
  # More DENYs (tuples / 50 + 1 = 9) than classes (6): the generator must
  # draw denied classes without replacement or the script repeats a tuple.
  "${gen}" --tuples 400 --depth 2 --fanout 2 --ops 40 --seed 1 --check \
      > /dev/null || {
    echo "FAIL: gen_workload --check failed with more DENYs than classes" >&2
    exit 1
  }
done

echo "CI passed: ${presets[*]}"
