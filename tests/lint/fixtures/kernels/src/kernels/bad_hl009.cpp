// homp-lint fixture: HL009 must fire on both raw-storage reads below.
// Minimal stand-ins; this file is never compiled, only linted.

template <typename T>
struct ArrayView {
  T& operator()(long long i) const;
  T* local_data();
};

void axpy_body(ArrayView<double> x, ArrayView<double> y, double a,
               long long lo, long long hi) {
  double* yp = y.local_data();
  const double* xp = x.local_data ();
  for (long long i = lo; i < hi; ++i) yp[i - lo] += a * xp[i - lo];
}
