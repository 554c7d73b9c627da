"""ROM image construction for the SMART+ model.

SMART+ places the attestation executable and the key ``K`` in ROM.  The
paper's Table 1 reports the executable size for each MAC choice; we use
the :class:`repro.hw.codesize.CodeSizeModel` to size the code region and
fill it with deterministic pseudo-content so that the ROM region has a
stable, verifiable digest (used by tests and by the secure-boot model in
HYDRA's counterpart).

The code is the same on every device of a deployment; only ``K``
differs.  So the code bytes are built once per ``(variant, MAC, size)``
per process and every :class:`RomImage` of that shape holds the *same*
``bytes`` object, which the ROM region of each device shares rather
than copies (no context may write ROM; see :mod:`repro.hw.memory`).
The code pattern and :meth:`RomImage.code_digest` are hashed on the
crypto backend, like every other device-side digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.crypto.backend import BackendSpec, resolve_backend
from repro.hw.codesize import CodeSizeModel

#: Shared ROM code bytes, keyed by ``(variant, mac_name, size)``.
_CODE_CACHE: Dict[Tuple[str, str, int], bytes] = {}


@dataclass(frozen=True)
class RomImage:
    """An immutable ROM image: attestation code bytes plus the key ``K``.

    ``crypto_backend`` only selects who computes :meth:`code_digest`;
    it takes no part in equality.
    """

    code: bytes
    key: bytes
    mac_name: str
    variant: str
    crypto_backend: BackendSpec = field(default=None, compare=False,
                                        repr=False)

    @property
    def code_size(self) -> int:
        """Size of the attestation executable in bytes."""
        return len(self.code)

    def code_digest(self) -> bytes:
        """SHA-256 digest of the attestation code (its identity)."""
        return resolve_backend(self.crypto_backend).hash_digest(
            "sha256", self.code)


def rom_code(variant: str, mac_name: str, size_bytes: int,
             backend: BackendSpec = None) -> bytes:
    """The synthetic attestation code of one ROM shape, built once.

    A repeating SHA-256 pattern of the configuration, cut to
    ``size_bytes``.  Every call with the same shape returns the same
    object; ``backend`` hashes the pattern on the first call only
    (every backend yields identical bytes).
    """
    shape = (variant, mac_name, size_bytes)
    code = _CODE_CACHE.get(shape)
    if code is None:
        seed = f"smart+/{variant}/{mac_name}".encode()
        pattern = resolve_backend(backend).hash_digest("sha256", seed)
        repetitions = size_bytes // len(pattern) + 1
        code = _CODE_CACHE.setdefault(
            shape, (pattern * repetitions)[:size_bytes])
    return code


def build_rom_image(key: bytes, mac_name: str = "keyed-blake2s",
                    variant: str = "erasmus",
                    code_size_model: CodeSizeModel | None = None,
                    backend: BackendSpec = None) -> RomImage:
    """Build a deterministic ROM image for the given MAC and variant.

    The code bytes are synthetic (a repeating pattern derived from the
    configuration) but their *size* follows the paper's Table 1 via the
    code-size model, so ROM-capacity reasoning stays faithful.  Images
    of one shape share their code bytes (see :func:`rom_code`).
    """
    if not key:
        raise ValueError("the attestation key K must be non-empty")
    model = code_size_model if code_size_model is not None else CodeSizeModel()
    size_bytes = model.report("smart+", variant, mac_name).total_bytes
    return RomImage(code=rom_code(variant, mac_name, size_bytes, backend),
                    key=bytes(key), mac_name=mac_name.lower(),
                    variant=variant.lower(), crypto_backend=backend)
