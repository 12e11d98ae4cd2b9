// homp-lint fixture: the C API returns a raw device pointer by design, so
// local_data() outside src/kernels and src/lang is not an HL009 finding.
// Never compiled, only linted.

template <typename T>
struct ArrayView {
  T* local_data();
};

struct homp_view {
  void* base;
};

void export_view(ArrayView<double>& v, homp_view* out) {
  out->base = v.local_data();
}
