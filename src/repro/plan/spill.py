"""Disk-backed candidate/feature matrices: the spill-file lifecycle.

Large A x B workloads produce feature matrices that outgrow RAM.  When
:class:`~repro.config.PlanConfig` sets a spill threshold, the engine
allocates those matrices as memory-mapped ``.npy`` files under the run
directory (``<run_dir>/spill/``) instead of heap arrays: the OS pages
the working set and peak RSS stays bounded.  A spill file is scratch
space.  No checkpoint refers to it and the run manifest does not hash
it: a resumed run rebuilds its candidate set and allocates its own
file (:func:`repro.engine.stages.rebuild_candidates`).

Ownership contract (enforced by corlint rule CL015): every memmap in
the tree is created here, through :class:`SpillManager`, which tracks
the handle and releases it on ``close()``.  Spill files live under the
run directory, so the run directory's cleanup (deleting the directory)
is their cleanup — nothing outlives the run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SPILL_DIR_NAME = "spill"
"""Subdirectory of the run directory holding spill ``.npy`` files."""


class SpillManager:
    """Allocates matrices on heap or disk by size, and owns the handles.

    ``threshold_bytes <= 0`` disables spilling (every allocation is a
    normal heap array).  Otherwise any allocation of at least that many
    bytes becomes a writable ``np.lib.format.open_memmap`` under
    ``directory``, tracked until :meth:`close`.

    Every allocation is Fortran-ordered, the feature-major layout of
    :class:`~repro.data.pairs.CandidateSet`, so the set takes the
    mapped matrix as it is and never copies it into RAM to change its
    layout.
    """

    def __init__(self, directory: Path | str,
                 threshold_bytes: int = 0) -> None:
        self.directory = Path(directory)
        self.threshold_bytes = int(threshold_bytes)
        self._spilled: dict[str, np.ndarray] = {}

    @staticmethod
    def matrix_bytes(shape: tuple[int, ...],
                     dtype=np.float64) -> int:
        """Heap footprint of an array before deciding where it lives."""
        cells = 1
        for extent in shape:
            cells *= int(extent)
        return cells * np.dtype(dtype).itemsize

    def allocate(self, name: str, shape: tuple[int, ...],
                 dtype=np.float64) -> np.ndarray:
        """A writable Fortran-ordered array of ``shape``: heap below
        threshold, else disk."""
        nbytes = self.matrix_bytes(shape, dtype)
        if self.threshold_bytes <= 0 or nbytes < self.threshold_bytes:
            return np.empty(shape, dtype=dtype, order="F")
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{name}.npy"
        array = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=shape,
            fortran_order=True,
        )
        self._spilled[name] = array
        return array

    @property
    def bytes_spilled(self) -> int:
        """Total bytes currently backed by spill files."""
        return sum(array.nbytes for array in self._spilled.values())

    def close(self) -> None:
        """Release every tracked handle.

        Views handed out by :meth:`allocate` stay valid while their
        holders keep them alive (numpy memmaps close with their last
        reference); the manager simply stops owning them.
        """
        self._spilled.clear()
