"""Disk-backed candidate/feature matrices: the spill-file lifecycle.

Large A x B workloads produce feature matrices that outgrow RAM.  When
:class:`~repro.config.PlanConfig` sets a spill threshold, the engine
allocates those matrices as memory-mapped ``.npy`` files under the run
directory (``<run_dir>/spill/``) instead of heap arrays: the OS pages
the working set, peak RSS stays bounded, and — because the file *is*
the canonical ``.npy`` serialization — checkpoints can reference the
spill file instead of re-serializing the matrix, keeping kill/resume
bit-identical (``repro.persistence`` reopens it read-only on load).

Ownership contract (enforced by corlint rule CL015): every writable
memmap in the tree is created here, through :class:`SpillManager`,
which tracks the handle, flushes it before any checkpoint references
the file, and releases it on ``close()``; read-side handles come from
:func:`open_readonly`.  Spill files live under the run directory, so
the run directory's cleanup (deleting the directory) is their cleanup
— nothing outlives the run.
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
    ``directory``, tracked so :meth:`flush` / :meth:`close` can make
    the bytes durable before a checkpoint references the file.

    Every allocation is Fortran-ordered, the feature-major layout of
    :class:`~repro.data.pairs.CandidateSet`: a spill file's header reads
    ``fortran_order: True``, so a resumed run maps the matrix as it was
    written and never copies it into RAM to change its layout.
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

    def manifest(self) -> dict[str, str]:
        """Allocation name -> spill filename, for telemetry/debugging."""
        return {
            name: Path(array.filename).name
            for name, array in self._spilled.items()
        }

    def flush(self) -> None:
        """Force every spilled array's bytes to disk.

        Must run before a checkpoint stores a reference to a spill
        file — the file on disk is then byte-complete even if the
        process dies immediately after.
        """
        for array in self._spilled.values():
            array.flush()

    def close(self) -> None:
        """Flush and release every tracked handle.

        Views handed out by :meth:`allocate` stay valid while their
        holders keep them alive (numpy memmaps close with their last
        reference); the manager simply stops owning them.
        """
        self.flush()
        self._spilled.clear()


def spill_path(array: np.ndarray) -> Path | None:
    """The backing ``.npy`` file of an array, chasing the view chain.

    ``CandidateSet`` wraps matrices in ``np.asfortranarray`` views, so
    the memmap (which carries ``filename``) may sit one or more
    ``.base`` hops below the array a caller holds.  Returns None for
    pure heap arrays.
    """
    node = array
    while node is not None:
        filename = getattr(node, "filename", None)
        if filename:
            return Path(filename)
        node = getattr(node, "base", None)
    return None


def open_readonly(path: Path | str,
                  manifest_root: Path | str | None = None) -> np.ndarray:
    """Reopen a spill ``.npy`` file as a read-only memmap.

    The read side of the lifecycle: resume paths map the checkpointed
    spill file instead of loading it into RAM.  Read-only maps carry no
    dirty pages, so they need no flush; the handle closes with the last
    array reference and the file itself belongs to the run directory.

    ``manifest_root`` (normally the run directory) enables content
    verification: when the storage manifest there records a sha256 for
    this file, the on-disk bytes are hashed and compared *before*
    mapping — shape/dtype fingerprints alone cannot catch a flipped
    bit inside the matrix, which would otherwise feed silently corrupt
    features to a resumed run.  A mismatch raises a typed
    :class:`~repro.exceptions.DataError` naming the file and both
    checksums; a file the manifest never recorded (pre-durability run
    directories) is mapped unverified, as before.
    """
    from ..exceptions import DataError
    from ..storage.recovery import verify_artifact

    path = Path(path)
    if manifest_root is not None:
        verdict, actual, expected = verify_artifact(manifest_root, path)
        if verdict is False:
            raise DataError(
                f"{path}: spill file is corrupt — sha256 {actual} does "
                f"not match the manifest's recorded {expected}")
    return np.load(path, mmap_mode="r")
