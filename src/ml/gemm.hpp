#pragma once
/// \file gemm.hpp
/// \brief Row-major single-precision GEMM for the CPU inference engine.
///
/// The surrogate's Conv3d layers lower to matrix multiplication (im2col):
/// per sample, y(cout, D*H*W) += W(cout, cin*k^3) * col(cin*k^3, D*H*W).
/// The kernel here is the saxpy-rank-1 form — for each output row, stream
/// the B rows in ascending k and accumulate with a `#pragma omp simd` inner
/// loop — so every output element is a fixed-order dot product computed by
/// exactly one thread. That makes the result bitwise independent of thread
/// count and of how many samples share a batch, the property the pool
/// scheduler's batched-vs-sequential determinism contract rests on.

#include <cstddef>

namespace asura::ml {

/// C (M x N) += A (M x K) * B (K x N), row-major with explicit leading
/// dimensions, serial. Accumulation over k is in ascending order per output
/// element — deterministic. Callers parallelize at a coarser grain (samples
/// x tiles) and keep each sgemmAcc call on one thread.
void sgemmAcc(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
              float* c, int ldc);

/// Same contract, OpenMP-parallel over rows of C (static schedule): each
/// output element is still owned by one thread, so the result is bitwise
/// identical at any OMP_NUM_THREADS. For small M prefer the serial call
/// under an outer parallel loop.
void sgemmAccParallel(int m, int n, int k, const float* a, int lda, const float* b,
                      int ldb, float* c, int ldc);

}  // namespace asura::ml
