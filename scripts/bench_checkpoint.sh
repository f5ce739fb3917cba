#!/usr/bin/env bash
# Writes one perf checkpoint of the tree: a BENCH_<n>.json file.
#
# Runs `python3 perfbench/run.py --workload all` four times: at seed 1 and
# at the held-out seed, each untraced (--trace 0: the end-to-end metrics of
# BENCHMARK.json) and traced (--trace 1: the per-layer metrics). The file
# records, per run and per workload, every metric from the run's JSON line,
# every `info` line (host.ref_ms among them) and the per-tenth
# txn_per_cpu_s rates, beside the git sha, nproc and the compiler.
#
# Usage: scripts/bench_checkpoint.sh OUT.json
# Takes about 4 min on 4 cores once perfbench is built (the first run
# builds it, about 2 min more).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ $# -ne 1 ]]; then
  echo "usage: $0 OUT.json" >&2
  exit 2
fi
out="$(realpath -m "$1")"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

cd "${root}"
for seed in 1 heldout; do
  for trace in 0 1; do
    echo "bench_checkpoint: --seed ${seed} --trace ${trace}" >&2
    python3 perfbench/run.py --workload all --seed "${seed}" \
      --trace "${trace}" >"${tmp}/seed=${seed}.trace=${trace}.txt"
  done
done

cache="${CARGO_TARGET_DIR:-.bench_build}/perfbench/CMakeCache.txt"
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "${cache}")"

python3 - "${tmp}" "${out}" "$(git rev-parse HEAD)" \
  "$(git status --porcelain --untracked-files=no | wc -l)" "$(nproc)" \
  "$("${cxx}" --version | head -n 1)" <<'EOF'
import json
import os
import re
import sys

tmp, out, sha, dirty, nproc, compiler = sys.argv[1:]
LINE = re.compile(r"^\[(\w+)\] (info|tenth)\s+(.*)$")
runs = {}
for name in sorted(os.listdir(tmp)):
    lines = open(os.path.join(tmp, name)).read().rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    workloads = {}
    def slot(w):
        return workloads.setdefault(w, {"metrics": {}, "info": {}, "tenths": []})
    for key, metric in result["metrics"].items():
        w, metric_name = key.split(".", 1)
        slot(w)["metrics"][metric_name] = metric
    for line in lines[:-1]:
        m = LINE.match(line)
        if not m:
            continue
        w, kind, rest = m.groups()
        if kind == "info":
            info_name, value, unit = rest.split()[:3]
            slot(w)["info"][info_name] = {"value": float(value), "unit": unit}
        else:
            slot(w)["tenths"].append(float(rest.split()[-1]))
    runs[name[:-len(".txt")]] = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "workloads": workloads,
    }
doc = {
    "git_sha": sha,
    "uncommitted_changes": int(dirty) > 0,
    "nproc": int(nproc),
    "compiler": compiler,
    "command": "python3 perfbench/run.py --workload all --seed S --trace T",
    "runs": runs,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print("bench_checkpoint: wrote " + out, file=sys.stderr)
EOF
