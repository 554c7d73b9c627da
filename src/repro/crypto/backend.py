"""Pluggable crypto backend registry.

The reproduction ships two interchangeable crypto providers:

* ``reference`` — the from-scratch, RFC/FIPS-faithful implementations
  in :mod:`repro.crypto.sha1` / :mod:`repro.crypto.sha256` /
  :mod:`repro.crypto.blake2s` / :mod:`repro.crypto.hmac`.  These expose
  compression-function work counts for the hardware cost models and are
  the ground truth the paper's Table 1 code-size figures refer to.
* ``accelerated`` — the CPython stdlib (``hashlib`` / ``hmac``), which
  computes bit-for-bit identical digests one to two orders of magnitude
  faster.  This is the default for simulations, sweeps and benchmarks,
  where only the *values* matter, not the modelled cycle counts.

Backend selection, in decreasing precedence:

1. a per-call / per-object ``backend=`` argument (a name or a
   :class:`CryptoBackend` instance) anywhere the crypto API accepts one;
2. :attr:`repro.core.config.ErasmusConfig.crypto_backend`, threaded
   through the scheduler, prover and verifier;
3. a process-wide override installed with :func:`set_default_backend`
   (or temporarily with :func:`use_backend`);
4. the ``ERASMUS_CRYPTO_BACKEND`` environment variable;
5. the built-in default, ``accelerated``.

The equivalence suite (``tests/crypto/test_backend.py``) pins the two
providers to identical outputs on standard test vectors and randomized
inputs, so switching backends never changes any schedule, digest, MAC
or DRBG stream.
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import hmac as _stdlib_hmac
import os
from typing import Callable, Dict, Iterator, Union

ENV_VAR = "ERASMUS_CRYPTO_BACKEND"
DEFAULT_BACKEND_NAME = "accelerated"

#: Anything that designates a backend: a registered name, an instance,
#: or ``None`` meaning "use the resolved default".
BackendSpec = Union[str, "CryptoBackend", None]

_HASHES = ("sha1", "sha256", "blake2s")
_HMAC_HASHES = ("sha1", "sha256")


class CryptoBackend(abc.ABC):
    """One provider of the hash / HMAC / keyed-BLAKE2s primitives.

    Subclasses implement the three primitive families; the generic MAC
    dispatch (:meth:`mac`, :meth:`supports_mac`) is shared.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        """One-shot hash digest (``sha1`` / ``sha256`` / ``blake2s``)."""

    @abc.abstractmethod
    def hmac_digest(self, hash_name: str, key: bytes, data: bytes) -> bytes:
        """One-shot HMAC digest under the named hash."""

    @abc.abstractmethod
    def keyed_blake2s(self, key: bytes, data: bytes,
                      digest_size: int = 32) -> bytes:
        """Keyed BLAKE2s MAC (RFC 7693 keyed mode)."""

    @abc.abstractmethod
    def digest_size(self, hash_name: str) -> int:
        """Digest size in bytes of the named hash."""

    def hash_function(self, hash_name: str) -> Callable[[bytes], bytes]:
        """A ``data -> digest`` closure with the hash name resolved once.

        It calls this backend's own :meth:`hash_digest`, so a subclass
        overriding that method sees every digest.
        """
        hash_name = hash_name.lower()
        if hash_name not in _HASHES:
            raise ValueError(f"unknown hash: {hash_name!r}")
        return lambda data: self.hash_digest(hash_name, data)

    def hmac_function(self, hash_name: str) -> Callable[[bytes, bytes], bytes]:
        """A fast ``(key, data) -> tag`` closure for hot loops.

        Resolving the hash name once lets callers like the HMAC-DRBG
        avoid per-call dispatch overhead.
        """
        hash_name = hash_name.lower()
        if hash_name not in _HMAC_HASHES:
            raise ValueError(f"unknown HMAC hash: {hash_name!r}")
        return lambda key, data: self.hmac_digest(hash_name, key, data)

    # ------------------------------------------------------------------
    # Generic MAC dispatch (the three constructions of paper Table 1)
    # ------------------------------------------------------------------
    def supports_mac(self, mac_name: str) -> bool:
        """True when :meth:`mac` can compute the named MAC natively."""
        return mac_name.lower() in ("hmac-sha1", "hmac-sha256",
                                    "keyed-blake2s")

    def mac(self, mac_name: str, key: bytes, data: bytes) -> bytes:
        """Compute a registered MAC construction by name."""
        lowered = mac_name.lower()
        if lowered == "hmac-sha1":
            return self.hmac_digest("sha1", key, data)
        if lowered == "hmac-sha256":
            return self.hmac_digest("sha256", key, data)
        if lowered == "keyed-blake2s":
            return self.keyed_blake2s(key, data)
        raise ValueError(f"backend {self.name!r} cannot compute MAC "
                         f"{mac_name!r}")

    def keyed_mac_function(self, mac_name: str
                           ) -> Callable[[bytes, bytes], bytes]:
        """A ``(key, data) -> tag`` closure with the construction resolved once.

        Provers that MAC every measurement under a key read afresh each
        time bind this once.  It calls this backend's own
        :meth:`hmac_digest` / :meth:`keyed_blake2s`, so a subclass
        overriding either sees every tag.
        """
        lowered = mac_name.lower()
        if lowered == "keyed-blake2s":
            return self.keyed_blake2s
        if lowered in ("hmac-sha1", "hmac-sha256"):
            hash_name = lowered[len("hmac-"):]
            return lambda key, data: self.hmac_digest(hash_name, key, data)
        raise ValueError(f"backend {self.name!r} cannot compute MAC "
                         f"{mac_name!r}")

    def mac_function(self, mac_name: str, key: bytes
                     ) -> Callable[[bytes], bytes]:
        """A fast ``data -> tag`` closure with name and key pre-bound.

        Hot loops that verify thousands of tags under one device key
        (the fleet collection pipeline) resolve the construction and the
        key once instead of per call.
        """
        if not self.supports_mac(mac_name):
            raise ValueError(f"backend {self.name!r} cannot compute MAC "
                             f"{mac_name!r}")
        lowered = mac_name.lower()
        return lambda data: self.mac(lowered, key, data)

    def compare_digests(self, left: bytes, right: bytes) -> bool:
        """Constant-time tag comparison, provider-matched.

        The reference provider keeps the from-scratch constant-time
        idiom; the accelerated provider uses the stdlib's C
        implementation — same contract, same result, no timing leak.
        """
        from repro.crypto.constant_time import constant_time_compare
        return constant_time_compare(left, right)

    def __repr__(self) -> str:
        return f"<CryptoBackend {self.name!r}>"


class ReferenceBackend(CryptoBackend):
    """The from-scratch pure-Python implementations (paper-faithful)."""

    name = "reference"

    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        cls = self._hash_class(hash_name)
        return cls(data).digest()

    def hmac_digest(self, hash_name: str, key: bytes, data: bytes) -> bytes:
        from repro.crypto.hmac import Hmac
        return Hmac(key, data, hash_name=hash_name).digest()

    def keyed_blake2s(self, key: bytes, data: bytes,
                      digest_size: int = 32) -> bytes:
        from repro.crypto.blake2s import Blake2s
        return Blake2s(data, key=key, digest_size=digest_size).digest()

    def digest_size(self, hash_name: str) -> int:
        return self._hash_class(hash_name).digest_size

    @staticmethod
    def _hash_class(hash_name: str):
        from repro.crypto.blake2s import Blake2s
        from repro.crypto.sha1 import Sha1
        from repro.crypto.sha256 import Sha256
        classes = {"sha1": Sha1, "sha256": Sha256, "blake2s": Blake2s}
        try:
            return classes[hash_name.lower()]
        except KeyError as exc:
            raise ValueError(f"unknown hash: {hash_name!r}") from exc


_HASH_CONSTRUCTORS = {
    "sha1": hashlib.sha1,
    "sha256": hashlib.sha256,
    "blake2s": hashlib.blake2s,
}


class AcceleratedBackend(CryptoBackend):
    """The CPython stdlib (``hashlib`` / ``hmac``) — fast C primitives."""

    name = "accelerated"

    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        constructor = _HASH_CONSTRUCTORS.get(hash_name) \
            or _HASH_CONSTRUCTORS.get(hash_name.lower())
        if constructor is None:
            raise ValueError(f"unknown hash: {hash_name!r}")
        return constructor(data).digest()

    def hmac_digest(self, hash_name: str, key: bytes, data: bytes) -> bytes:
        return _stdlib_hmac.digest(key, data, hash_name.lower())

    def keyed_blake2s(self, key: bytes, data: bytes,
                      digest_size: int = 32) -> bytes:
        return hashlib.blake2s(data, key=key,
                               digest_size=digest_size).digest()

    def digest_size(self, hash_name: str) -> int:
        try:
            return hashlib.new(hash_name.lower()).digest_size
        except ValueError as exc:
            raise ValueError(f"unknown hash: {hash_name!r}") from exc

    def hmac_function(self, hash_name: str) -> Callable[[bytes, bytes], bytes]:
        hash_name = hash_name.lower()
        if hash_name not in _HMAC_HASHES:
            raise ValueError(f"unknown HMAC hash: {hash_name!r}")
        digest = _stdlib_hmac.digest
        return lambda key, data: digest(key, data, hash_name)

    def mac_function(self, mac_name: str, key: bytes
                     ) -> Callable[[bytes], bytes]:
        lowered = mac_name.lower()
        if lowered == "keyed-blake2s":
            blake2s = hashlib.blake2s
            return lambda data: blake2s(data, key=key).digest()
        if lowered == "hmac-sha1":
            digest = _stdlib_hmac.digest
            return lambda data: digest(key, data, "sha1")
        if lowered == "hmac-sha256":
            digest = _stdlib_hmac.digest
            return lambda data: digest(key, data, "sha256")
        raise ValueError(f"backend {self.name!r} cannot compute MAC "
                         f"{mac_name!r}")

    def compare_digests(self, left: bytes, right: bytes) -> bool:
        return _stdlib_hmac.compare_digest(left, right)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, CryptoBackend] = {}
_default_override: str | None = None


def register_backend(backend: CryptoBackend) -> None:
    """Register a backend instance under its (lower-cased) name."""
    _BACKENDS[backend.name.lower()] = backend


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_BACKENDS)


def default_backend_name() -> str:
    """The name the current default resolves to (override > env > builtin)."""
    if _default_override is not None:
        return _default_override
    return os.environ.get(ENV_VAR, DEFAULT_BACKEND_NAME).lower()


def set_default_backend(name: str | None) -> None:
    """Install (or with ``None`` clear) the process-wide default backend."""
    global _default_override
    if name is None:
        _default_override = None
        return
    lowered = name.lower()
    if lowered not in _BACKENDS:
        known = ", ".join(available_backends())
        raise ValueError(f"unknown crypto backend {name!r}; known: {known}")
    _default_override = lowered


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[CryptoBackend]:
    """Temporarily make ``name`` the default backend (for tests/sweeps)."""
    global _default_override
    previous = _default_override
    set_default_backend(name)
    try:
        yield _BACKENDS[name.lower()]
    finally:
        _default_override = previous


def get_backend(name: BackendSpec = None) -> CryptoBackend:
    """Resolve a backend spec (name / instance / ``None``) to an instance."""
    if isinstance(name, CryptoBackend):
        return name
    if name is None:
        name = default_backend_name()
    try:
        return _BACKENDS[name.lower()]
    except KeyError as exc:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown crypto backend {name!r}; known: {known}") from exc


#: Alias that reads better at call sites threading optional specs.
resolve_backend = get_backend


register_backend(ReferenceBackend())
register_backend(AcceleratedBackend())
