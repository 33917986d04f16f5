"""Persistent eigendecomposition cache keyed by (model hash, disorder seed).

Entries are npz files published with an atomic rename; a sidecar .sha256
guards against corruption.  FERMICOND_CACHE_DIR overrides the location.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from .equilibrium import SpectralData

CACHE_FORMAT_VERSION = 3  # 3: U's blocks as one flat buffer, not one dense matrix
ENV_VAR = "FERMICOND_CACHE_DIR"


class CacheCorruptionError(Exception):
    pass


class CacheCorruptionWarning(UserWarning):
    """A corrupt entry was evicted and its spectrum recomputed."""


def cache_dir(configured: str | None = None) -> Path:
    env = os.environ.get(ENV_VAR)
    base = env or configured or os.path.join(tempfile.gettempdir(), "fermicond-cache")
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


class SpectralCache:
    def __init__(self, directory: str | None = None):
        self.dir = cache_dir(directory)

    def _path(self, model_hash: str, seed: int) -> Path:
        key = f"v{CACHE_FORMAT_VERSION}:{model_hash}:{seed}"
        name = hashlib.sha256(key.encode()).hexdigest()[:24]
        return self.dir / f"{name}.npz"

    def get(self, model_hash: str, seed: int) -> SpectralData | None:
        path = self._path(model_hash, seed)
        if not path.exists():
            return None
        raw = path.read_bytes()  # read once: the entry returned is the entry verified
        sidecar = path.with_suffix(".sha256")
        if not sidecar.exists():
            raise CacheCorruptionError(f"{path.name}: missing checksum sidecar")
        if sidecar.read_text().strip() != hashlib.sha256(raw).hexdigest():
            raise CacheCorruptionError(f"{path.name}: checksum mismatch")
        data = np.load(io.BytesIO(raw))
        sizes = data["block_sizes"]
        flat = np.split(data["blocks"], np.cumsum(sizes * sizes)[:-1])
        blocks = tuple(b.reshape(n, n) for b, n in zip(flat, sizes))
        return SpectralData(data["eigenvalues"], blocks, data["columns"],
                            str(data["source_hash"]))

    def put(self, model_hash: str, seed: int, spectral: SpectralData) -> Path:
        path = self._path(model_hash, seed)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, eigenvalues=spectral.eigenvalues,
                 blocks=np.concatenate([uk.ravel() for uk in spectral.blocks]),
                 block_sizes=np.array([len(uk) for uk in spectral.blocks]),
                 columns=spectral.columns, source_hash=np.str_(spectral.source_hash))
        digest = hashlib.sha256(tmp.read_bytes()).hexdigest()
        sidetmp = path.with_suffix(".tmp.sha256")
        sidetmp.write_text(digest + "\n")
        os.replace(tmp, path)                     # atomic publish
        os.replace(sidetmp, path.with_suffix(".sha256"))
        return path

    def evict(self, model_hash: str, seed: int) -> None:
        path = self._path(model_hash, seed)
        path.unlink(missing_ok=True)
        path.with_suffix(".sha256").unlink(missing_ok=True)

    def stats(self) -> dict:
        files = sorted(self.dir.glob("*.npz"))
        return {"dir": str(self.dir), "entries": len(files),
                "bytes": sum(f.stat().st_size for f in files)}

    def clear(self) -> int:
        n = 0
        for f in list(self.dir.glob("*.npz")) + list(self.dir.glob("*.sha256")):
            f.unlink()
            n += 1
        return n
