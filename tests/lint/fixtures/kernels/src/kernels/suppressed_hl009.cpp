// homp-lint fixture: raw-storage reads carrying the allow comment, on the
// line and on the line above — HL009 must stay quiet.  Never compiled.

template <typename T>
struct ArrayView {
  T* local_data();
};

double peek(ArrayView<double>& v) {
  double* p = v.local_data();  // homp-lint: allow(HL009)
  // homp-lint: allow(HL009)
  double* q = v.local_data();
  return *p + *q;
}
