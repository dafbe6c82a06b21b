#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full CTest suite.
# Usage: tools/run_tier1.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)"

# ckpt_inspect smoke: --help must work, and a damaged/missing file must be a
# clean nonzero exit (not a crash).
"${build_dir}/ckpt_inspect" --help > /dev/null
if "${build_dir}/ckpt_inspect" "${build_dir}/no-such-checkpoint.ckpt" > /dev/null 2>&1; then
  echo "ckpt_inspect: expected nonzero exit on missing file" >&2
  exit 1
fi

# scenario_server smoke: a tiny hosted fleet must come out bitwise clean
# (the tool self-verifies against unhosted reruns and exits nonzero on any
# divergence). Its archived checkpoints must pass the framing walker, so a
# writer and the walker can never drift apart unnoticed.
archive_dir="$(mktemp -d)"
trap 'rm -rf "${archive_dir}"' EXIT
"${build_dir}/scenario_server" --smoke --archive "${archive_dir}" > /dev/null
archived=0
for ckpt in "${archive_dir}"/*.ckpt; do
  [ -e "${ckpt}" ] || break
  "${build_dir}/ckpt_inspect" --json "${ckpt}" > /dev/null
  archived=$((archived + 1))
done
if [ "${archived}" -eq 0 ]; then
  echo "scenario_server: --archive wrote no checkpoints" >&2
  exit 1
fi

# Parallel ctest without oversubscribing the CPU: every test process starts
# OMP_NUM_THREADS OpenMP threads, so jobs x threads stays <= nproc. Each test
# gets 2 threads where the host has them (tier-1 still runs the OpenMP
# paths), or the caller's OMP_NUM_THREADS when set.
cores="$(nproc)"
threads="${OMP_NUM_THREADS:-$(( cores < 2 ? cores : 2 ))}"
threads="${threads%%,*}"  # a nested-parallelism list starts with the outer count
case "${threads}" in ''|0|*[!0-9]*) threads=1 ;; esac
jobs=$(( cores / threads ))
if [ "${jobs}" -lt 1 ]; then jobs=1; fi
cd "${build_dir}" && OMP_NUM_THREADS="${threads}" ctest --output-on-failure -j "${jobs}"
