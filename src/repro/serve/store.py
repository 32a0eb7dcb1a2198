"""Durable tenant state: atomic, checksummed checkpoint files per tenant.

The :class:`~repro.serve.registry.AdapterRegistry` holds a tenant's state
either resident, as flat arrays, or here: the store is the only place an
evicted tenant goes, and the only one that survives a restart.  It gives the
registry the guarantees a multi-tenant service actually needs:

* **Atomic writes.**  Every checkpoint is written to a temp file in the same
  directory, flushed and ``fsync``\\ ed, then ``os.replace``\\ d over the final
  name (followed by a directory fsync).  A crash at any point leaves either
  the old complete file or the new complete file — never a torn one — and
  stray temp files are ignored by the loader.
* **End-to-end integrity.**  The file is one JSON header line (magic, tenant,
  step count, dtype, element count, SHA-256 of the body) followed by the raw
  flat slabs (``params | m | v`` concatenated).  The loader verifies
  everything before a single byte reaches the optimizer; any mismatch —
  truncation, bit rot, a half-written legacy file — **quarantines** the file
  (renamed to ``<name>.corrupt``) and raises :class:`CheckpointCorruptError`.
  A corrupt checkpoint can cost one tenant its saved progress; it can never
  poison a live lane or stop the service from starting.
* **Bounded retries.**  Transient write failures (including injected ones —
  the ``checkpoint_write_failure`` site of
  :class:`~repro.runtime.fault.FaultInjector`) are retried on a seeded
  backoff schedule via :class:`~repro.runtime.fault.RetryPolicy`.

Round-trips are bitwise: ``save`` → ``load`` returns byte-identical slabs
(the serve test tier locks digest equality across a full service restart).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.fault import FaultInjector, InjectedFault, RetryPolicy

__all__ = ["CheckpointCorruptError", "TenantStateStore", "MAGIC"]

MAGIC = "lexckpt1"

_SUFFIX = ".ckpt"
_QUARANTINE_SUFFIX = ".corrupt"


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed verification and was quarantined."""


def _safe_name(tenant: str) -> str:
    """Filesystem-safe encoding of a tenant id (header keeps the truth)."""
    return "".join(c if c.isalnum() or c in "._-" else f"%{ord(c):02x}"
                   for c in tenant)


class TenantStateStore:
    """Atomic, checksummed per-tenant checkpoint files (see module docstring).

    Parameters
    ----------
    directory:
        Checkpoint directory; created on first use.
    retry:
        :class:`RetryPolicy` for transient write failures; default three
        retries with deterministic-jitter backoff.
    fault_injector:
        Optional injector consulted at the ``checkpoint_write_failure`` site
        on every write attempt.
    """

    def __init__(self, directory: str,
                 retry: Optional[RetryPolicy] = None,
                 fault_injector: Optional[FaultInjector] = None):
        self.directory = str(directory)
        self.retry = retry or RetryPolicy()
        self.fault_injector = fault_injector
        self.writes = 0
        self.restores = 0
        self.quarantined = 0
        os.makedirs(self.directory, exist_ok=True)

    # -- paths ---------------------------------------------------------------
    def path(self, tenant: str) -> str:
        return os.path.join(self.directory, _safe_name(tenant) + _SUFFIX)

    def exists(self, tenant: str) -> bool:
        return os.path.exists(self.path(tenant))

    # -- write ---------------------------------------------------------------
    def save(self, tenant: str, step_count: int, params: np.ndarray,
             m: np.ndarray, v: np.ndarray) -> str:
        """Atomically persist one tenant's flat slabs; returns the path."""
        params = np.ascontiguousarray(params)
        m = np.ascontiguousarray(m)
        v = np.ascontiguousarray(v)
        if not (params.shape == m.shape == v.shape
                and params.dtype == m.dtype == v.dtype):
            raise ValueError("params/m/v slabs must share shape and dtype")
        body = params.tobytes() + m.tobytes() + v.tobytes()
        header = json.dumps({
            "magic": MAGIC,
            "tenant": tenant,
            "step_count": int(step_count),
            "dtype": params.dtype.name,
            "total": int(params.size),
            "sha256": hashlib.sha256(body).hexdigest(),
        }, sort_keys=True).encode("utf-8")
        final_path = self.path(tenant)

        def _write() -> None:
            if self.fault_injector is not None:
                self.fault_injector.maybe_raise("checkpoint_write_failure")
            fd, tmp_path = tempfile.mkstemp(dir=self.directory,
                                            prefix=_safe_name(tenant) + ".",
                                            suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header)
                    handle.write(b"\n")
                    handle.write(body)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, final_path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            # Make the rename itself durable.
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

        self.retry.call(_write, retry_on=(OSError, InjectedFault))
        self.writes += 1
        return final_path

    # -- read ----------------------------------------------------------------
    def _quarantine(self, path: str, why: str) -> CheckpointCorruptError:
        quarantine_path = path + _QUARANTINE_SUFFIX
        try:
            os.replace(path, quarantine_path)
        except OSError:
            quarantine_path = path
        self.quarantined += 1
        return CheckpointCorruptError(
            f"checkpoint {path} failed verification ({why}); quarantined as "
            f"{quarantine_path} — the tenant restarts from its last good "
            f"state, the corrupt bytes were never loaded")

    def _read_verified(self, path: str) -> Tuple[dict, bytes]:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise FileNotFoundError(f"no checkpoint at {path}") from exc
        newline = raw.find(b"\n")
        if newline < 0:
            raise self._quarantine(path, "no header line")
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise self._quarantine(path, "unparsable header") from None
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise self._quarantine(path, "bad magic")
        body = raw[newline + 1:]
        try:
            dtype = np.dtype(header["dtype"])
            total = int(header["total"])
            expected_sha = str(header["sha256"])
        except (KeyError, TypeError, ValueError):
            raise self._quarantine(path, "incomplete header") from None
        if len(body) != 3 * total * dtype.itemsize:
            raise self._quarantine(
                path, f"torn body: {len(body)} bytes, expected "
                      f"{3 * total * dtype.itemsize}")
        if hashlib.sha256(body).hexdigest() != expected_sha:
            raise self._quarantine(path, "SHA-256 mismatch")
        return header, body

    def _read_tenant(self, tenant: str) -> Tuple[dict, bytes, np.dtype, int]:
        """``tenant``'s verified checkpoint: its header, its body, the slab
        dtype and the slab length."""
        path = self.path(tenant)
        header, body = self._read_verified(path)
        if header.get("tenant") != tenant:
            raise self._quarantine(
                path, f"tenant mismatch: header says "
                      f"{header.get('tenant')!r}")
        return header, body, np.dtype(header["dtype"]), int(header["total"])

    def load(self, tenant: str) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Verified read of one tenant: ``(step_count, params, m, v)``.

        Raises :class:`FileNotFoundError` when no checkpoint exists and
        :class:`CheckpointCorruptError` (after quarantining the file) when
        verification fails.
        """
        header, body, dtype, total = self._read_tenant(tenant)
        span = total * dtype.itemsize
        params, m, v = (np.frombuffer(body, dtype, total, i * span).copy()
                        for i in range(3))
        self.restores += 1
        return int(header["step_count"]), params, m, v

    def load_params(self, tenant: str) -> np.ndarray:
        """Verified read of one tenant's adapter parameters alone.

        The whole file is read and checked as by :meth:`load`, but only the
        ``params`` slab is copied out, and nothing is restored: ``restores``
        does not count it.
        """
        _, body, dtype, total = self._read_tenant(tenant)
        return np.frombuffer(body, dtype, total).copy()

    # -- discovery -----------------------------------------------------------
    def scan(self) -> Dict[str, int]:
        """Verify every checkpoint in the directory; quarantine the corrupt.

        Returns ``{tenant: step_count}`` for the files that passed.  Corrupt
        or torn files are renamed aside (never loaded, never fatal): a
        restarted service always comes up, with every recoverable tenant.
        """
        survivors: Dict[str, int] = {}
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                header, _ = self._read_verified(path)
            except CheckpointCorruptError:
                continue
            except FileNotFoundError:
                continue
            survivors[str(header["tenant"])] = int(header["step_count"])
        return survivors

    def quarantined_files(self) -> List[str]:
        return sorted(name for name in os.listdir(self.directory)
                      if name.endswith(_QUARANTINE_SUFFIX))

    def gauges(self) -> Dict[str, float]:
        return {
            "tenant_checkpoint_writes": float(self.writes),
            "tenant_restores": float(self.restores),
            "tenant_quarantined": float(self.quarantined),
        }
