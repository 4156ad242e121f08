#!/usr/bin/env bash
# Dispatch by construction: AVX2 code may live only inside the AVX2 kernels.
#
#   1. Every function of simd_avx2.cpp.o that contains a VEX-encoded
#      instruction must have local binding (nm type `t`), so the linker can
#      never pick an AVX2 copy of a shared symbol for undispatched callers.
#   2. Every function of the linked lumen-bench that contains a VEX-encoded
#      instruction must lie in lumen::geom::simd::avx2::(anonymous namespace),
#      the code simd.cpp reaches only behind __builtin_cpu_supports("avx2").
#
# Usage: .github/scripts/check_dispatch.sh <cmake-build-dir>
set -euo pipefail
export LC_ALL=C

build=${1:?usage: check_dispatch.sh <cmake-build-dir>}
obj="$build/src/geom/CMakeFiles/lumen_geom.dir/simd_avx2.cpp.o"
bin="$build/bench/lumen-bench"
for f in "$obj" "$bin"; do
  [ -f "$f" ] || { echo "check_dispatch: missing $f" >&2; exit 2; }
done

# Mangled names of the functions in $1 with at least one VEX instruction
# (every AVX mnemonic starts with `v`; the VMX ones that also do are not
# VEX-encoded and are excluded).
vex_functions() {
  objdump -d --no-show-raw-insn "$1" | awk '
    /^[0-9a-f]+ <.*>:$/ { fn = substr($2, 2, length($2) - 3); next }
    /^ *[0-9a-f]+:\t/ {
      split($0, part, "\t")
      if (part[2] ~ /^v/ && part[2] !~ /^v(err|erw|mcall|mlaunch|mresume|mxo|mread|mwrite|mptr|mclear|mfunc)/)
        vex[fn] = 1
    }
    END { for (f in vex) print f }' | sort
}

status=0

leaked=$(join -o 1.1,2.2 <(vex_functions "$obj") \
  <(nm --defined-only "$obj" | awk '{ print $3, $2 }' | sort) |
  awk '$2 != "t" { print $1 " (" $2 ")" }')
echo "simd_avx2.cpp.o: $(vex_functions "$obj" | wc -l) functions with VEX code"
if [ -n "$leaked" ]; then
  echo "FAIL: VEX functions with non-local binding in simd_avx2.cpp.o:"
  echo "$leaked" | c++filt | sed 's/^/  /'
  status=1
fi

outside=$(vex_functions "$bin" | c++filt |
  grep -v '^lumen::geom::simd::avx2::(anonymous namespace)::' || true)
if [ -n "$outside" ]; then
  echo "FAIL: VEX code in lumen-bench outside simd::avx2::(anonymous namespace):"
  echo "$outside" | sed 's/^/  /'
  status=1
fi

[ "$status" = 0 ] && echo "dispatch by construction: OK"
exit "$status"
