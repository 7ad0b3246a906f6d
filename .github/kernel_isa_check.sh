#!/usr/bin/env bash
# Checks that every ISA copy of the dispatched dense kernels in a release
# binary is vectorised: each AVX2 copy
# (`fedval_nn::linalg::<kernel>::avx2`) must hold more packed `vmulps`
# on ymm registers, and each baseline copy (`...::baseline`, SSE2 on
# x86_64) more packed `mulps`, than scalar `mulss` (remainder loops keep a
# few). A copy LLVM leaves scalar still returns the same bits, only
# slower, so no test notices; this does.
#
#   bash .github/kernel_isa_check.sh target/release/fedval-benchmark
#
# Needs binutils' objdump; exits non-zero on a scalar or missing copy.
set -euo pipefail

objdump -d -C --no-show-raw-insn "$1" | awk '
    /^[0-9a-f]+ <.*>:$/ {
        copy = ""
        if (match($0, /fedval_nn::linalg::[a-z_]+::(avx2|baseline)>/)) {
            copy = substr($0, RSTART, RLENGTH - 1)
            packed[copy] += 0
            scalar[copy] += 0
        }
        next
    }
    copy ~ /::avx2$/ && /\tvmulps / && /%ymm/ { packed[copy]++ }
    copy ~ /::baseline$/ && /\tmulps / { packed[copy]++ }
    copy != "" && /\tv?mulss / { scalar[copy]++ }
    END {
        failed = 0
        for (c in packed) {
            kernel = c
            sub(/::(avx2|baseline)$/, "", kernel)
            if (!(kernel in kernels)) found++
            kernels[kernel] = 1
            printf "%-46s %3d packed, %3d scalar multiplies\n", c, packed[c], scalar[c]
            if (packed[c] <= scalar[c]) failed = 1
        }
        for (k in kernels) {
            if (!((k "::avx2") in packed) || !((k "::baseline") in packed)) {
                printf "%s: a copy is missing from the binary\n", k
                failed = 1
            }
        }
        if (found == 0) {
            print "no dispatched kernel found"
            failed = 1
        }
        exit failed
    }'
