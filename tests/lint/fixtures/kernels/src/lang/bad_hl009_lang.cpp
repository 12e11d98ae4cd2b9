// homp-lint fixture: HL009 covers src/lang bodies as well as src/kernels.
// Never compiled, only linted.

template <typename T>
struct ArrayView {
  T* local_data();
};

double first(ArrayView<double>& v) { return *v.local_data(); }
