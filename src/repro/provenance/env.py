"""Environment capture for experiment manifests."""

from __future__ import annotations

import functools
import platform
import sys
from dataclasses import dataclass
from importlib import metadata

from repro.utils import blas

__all__ = ["EnvironmentSnapshot", "capture_environment"]

# Packages whose versions materially affect numerical results here.
_TRACKED_PACKAGES = ("numpy", "scipy", "networkx", "pytest", "hypothesis")


@dataclass(frozen=True)
class EnvironmentSnapshot:
    """Versions and platform facts relevant to reproducing a run."""

    python_version: str
    platform: str
    machine: str
    packages: tuple[tuple[str, str], ...]
    #: The loaded BLAS libraries and the thread count runs hold them at
    #: (:func:`repro.utils.blas.describe`).
    blas_library: tuple[str, ...] = ()
    blas_threads: int | str = "unpinned"

    def as_dict(self) -> dict[str, object]:
        return {
            "python_version": self.python_version,
            "platform": self.platform,
            "machine": self.machine,
            "packages": dict(self.packages),
            "blas": {"library": list(self.blas_library), "threads": self.blas_threads},
        }

    def differs_from(self, other: "EnvironmentSnapshot") -> list[str]:
        """Human-readable list of differences (empty when equivalent)."""
        diffs: list[str] = []
        if self.python_version != other.python_version:
            diffs.append(
                f"python: {self.python_version} vs {other.python_version}"
            )
        if self.platform != other.platform:
            diffs.append(f"platform: {self.platform} vs {other.platform}")
        mine_blas = (self.blas_library, self.blas_threads)
        theirs_blas = (other.blas_library, other.blas_threads)
        if mine_blas != theirs_blas:
            diffs.append(f"blas: {mine_blas} vs {theirs_blas}")
        mine, theirs = dict(self.packages), dict(other.packages)
        for name in sorted(set(mine) | set(theirs)):
            a, b = mine.get(name, "absent"), theirs.get(name, "absent")
            if a != b:
                diffs.append(f"{name}: {a} vs {b}")
        return diffs


@functools.cache
def capture_environment() -> EnvironmentSnapshot:
    """Snapshot the interpreter, platform, tracked package versions and BLAS.

    Captured once per process: each ``metadata.version`` call parses a
    package's METADATA file, a cost a long-lived serve worker would
    otherwise pay on every run it writes.  The interpreter, the platform
    and the packages a process has imported cannot change version under
    it, so the first snapshot describes the code a later run executes at
    least as faithfully as a fresh disk read would.  The snapshot is
    frozen, so sharing it is safe; ``capture_environment.__wrapped__()``
    takes an un-memoized one.
    """
    blas_info = blas.describe()
    packages = []
    for name in _TRACKED_PACKAGES:
        try:
            packages.append((name, metadata.version(name)))
        except metadata.PackageNotFoundError:
            packages.append((name, "absent"))
    return EnvironmentSnapshot(
        python_version=sys.version.split()[0],
        platform=platform.platform(),
        machine=platform.machine(),
        packages=tuple(packages),
        blas_library=tuple(blas_info["library"]),
        blas_threads=blas_info["threads"],
    )
