// homp-lint fixture: a kernel body that indexes only through the checked
// view, so HL009 must stay quiet.  Mentions of local_data() in comments
// and string literals are not calls.  Never compiled, only linted.

template <typename T>
struct ArrayView {
  T& operator()(long long i) const;
};

const char* kNote = "never call local_data() here";

void axpy_body(ArrayView<double> x, ArrayView<double> y, double a,
               long long lo, long long hi) {
  for (long long i = lo; i < hi; ++i) y(i) += a * x(i);
}
