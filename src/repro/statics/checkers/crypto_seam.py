"""Rule ``crypto-seam``: digests and MACs go through the crypto backend.

Every hash and MAC the reproduction computes is picked by the
pluggable backend registry (:mod:`repro.crypto.backend`): the
``reference`` provider models the paper's from-scratch code, the
``accelerated`` one the stdlib, and ``ErasmusConfig.crypto_backend``
selects per deployment.  A module that imports one of the
from-scratch primitive modules of ``repro.crypto`` directly (``sha1``,
``sha256``, ``blake2s`` or ``hmac``) always runs the pure-Python code,
whatever the deployment chose: slow where the accelerated default was
meant, and invisible to a counting or substituted backend.

Flagged outside ``repro/crypto/`` (the providers themselves): imports
of those modules, and imports of their primitives re-exported by the
``repro.crypto`` package.  ``repro.crypto.backend``, ``.mac``,
``.constant_time`` and ``.csprng`` stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statics.engine import Checker, FileContext, Finding

_PROVIDER_MARKER = "repro/crypto/"
_PRIMITIVE_MODULES = frozenset(
    f"repro.crypto.{name}" for name in ("sha1", "sha256", "blake2s", "hmac"))
#: Primitives ``repro.crypto`` re-exports from those modules.
_PRIMITIVE_NAMES = frozenset({
    "sha1", "sha256", "blake2s", "hmac",
    "Sha1", "Sha256", "Blake2s", "Hmac",
    "sha1_digest", "sha256_digest", "blake2s_digest", "keyed_blake2s",
    "hmac_digest",
})
_ADVICE = ("hash and MAC through repro.crypto.backend or repro.crypto.mac "
           "so the configured crypto backend computes it")


class CryptoSeamChecker(Checker):
    rule = "crypto-seam"
    description = ("modules outside repro.crypto must hash and MAC via "
                   "the crypto backend, not the from-scratch primitives")
    invariant = ("every digest and MAC follows the selected crypto "
                 "backend, so ErasmusConfig.crypto_backend and the "
                 "cross-backend equivalence suite cover all of them")
    applies_to_tests = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if _PROVIDER_MARKER in ctx.relpath:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _PRIMITIVE_MODULES:
                        yield ctx.finding(
                            self.rule, node,
                            f"direct import of {alias.name}; {_ADVICE}")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module in _PRIMITIVE_MODULES:
                    names = ", ".join(alias.name for alias in node.names)
                    yield ctx.finding(
                        self.rule, node,
                        f"direct import of {names} from {node.module}; "
                        f"{_ADVICE}")
                elif node.module == "repro.crypto":
                    names = [alias.name for alias in node.names
                             if alias.name in _PRIMITIVE_NAMES]
                    if names:
                        yield ctx.finding(
                            self.rule, node,
                            f"direct import of {', '.join(names)} from "
                            f"repro.crypto; {_ADVICE}")
