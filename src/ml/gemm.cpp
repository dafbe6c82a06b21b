#include "ml/gemm.hpp"

namespace asura::ml {

namespace {

/// One row-block of the saxpy-rank-1 kernel: rows [i0, i1) of C.
/// B rows are streamed in ascending k for each output row, so each C
/// element accumulates its K terms in a fixed order on one thread.
inline void rowRange(int i0, int i1, int n, int k, const float* a, int lda,
                     const float* b, int ldb, float* c, int ldc) {
  for (int i = i0; i < i1; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * lda;
    float* ci = c + static_cast<std::size_t>(i) * ldc;
    for (int kk = 0; kk < k; ++kk) {
      const float aik = ai[kk];
      const float* bk = b + static_cast<std::size_t>(kk) * ldb;
#pragma omp simd
      for (int j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

}  // namespace

void sgemmAcc(int m, int n, int k, const float* a, int lda, const float* b, int ldb,
              float* c, int ldc) {
  rowRange(0, m, n, k, a, lda, b, ldb, c, ldc);
}

void sgemmAccParallel(int m, int n, int k, const float* a, int lda, const float* b,
                      int ldb, float* c, int ldc) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < m; ++i) {
    rowRange(i, i + 1, n, k, a, lda, b, ldb, c, ldc);
  }
}

}  // namespace asura::ml
