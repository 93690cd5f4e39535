# lvfield pins BLAS to one thread when it is imported, which only takes
# effect if it is imported before numpy loads BLAS.
import lvfield  # noqa: F401
