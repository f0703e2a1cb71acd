"""Opinion mining of short informal text: two-stage subjectivity/polarity classification."""

import os

# No opmine code calls BLAS; uncapped, numpy's import starts a BLAS thread pool,
# and the pipeline would fork its workers from a multi-threaded process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
