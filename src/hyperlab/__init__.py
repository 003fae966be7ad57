"""hyperlab: desk-scale experiments on hyperrigid generator sets.

Modules:

* ``linalg``    dense complex kernels (norms, hermitization, partial trace)
* ``opsys``     generated *-algebras, commutants, irreducibility
* ``cpmaps``    Choi matrices, Kraus sets, Stinespring dilations, Schwarz defects
* ``toeplitz``  exact Laurent-band + finite-tail arithmetic on l2(N)
* ``uep``       the unique-extension-property falsifier
* ``korovkin``  convergence experiments for sequences of positive unital maps
* ``rng``       seeded Philox streams and the random matrices drawn from them
* ``serialize`` matrix literals, byte-stable JSON and config digests
* ``suite``     the numbered acceptance criteria behind ``hyperlab suite``
* ``errors``    the exception hierarchy shared by every module
* ``cli``       the ``hyperlab`` command line front end

Setting ``HYPERLAB_THREADS=n`` caps the BLAS backends at n threads.  The cap
is applied here, before any submodule imports numpy, because OpenBLAS reads
its thread count once, when it is loaded; it has no effect when numpy was
imported before hyperlab, and explicit ``*_NUM_THREADS`` settings win.
"""

import os as _os

_threads = _os.environ.get("HYPERLAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
