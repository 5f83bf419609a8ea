"""scipy's compiled CSR kernels, loaded without importing scipy.

uctmc steps its chains with three C kernels of scipy's ``_sparsetools``
extension: ``csr_matvec`` (y += A x), ``csr_matvecs`` (Y += A X, for X with
several columns, row-major) and ``csr_tocsc`` (the transpose).
``import scipy.sparse`` would also run ``scipy/__init__`` and
``scipy/sparse/__init__``, which take a few tenths of a second, mostly in
scipy's array-API layer.  The extension is loaded here from its file, which
runs neither; the kernels are the same compiled code either way, so every
result keeps its bits.  The extension registers itself as
``scipy.sparse._sparsetools``, so a later ``import scipy.sparse`` reuses it.
The normal import serves only when scipy has no such file.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os


def _load():
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                extension = importlib.util.spec_from_file_location(
                    "scipy.sparse._sparsetools", path)
                module = importlib.util.module_from_spec(extension)
                extension.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools
    return _sparsetools


sparsetools = _load()
csr_matvec = sparsetools.csr_matvec
csr_matvecs = sparsetools.csr_matvecs
csr_tocsc = sparsetools.csr_tocsc
