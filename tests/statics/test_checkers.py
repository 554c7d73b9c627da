"""Per-rule fixture tests: one positive, negatives, and a pragma each."""

from repro.statics.checkers.codec import CodecExhaustivenessChecker
from repro.statics.checkers.constant_time import ConstantTimeChecker
from repro.statics.checkers.crypto_seam import CryptoSeamChecker
from repro.statics.checkers.determinism import DeterminismChecker
from repro.statics.checkers.exact_fraction import ExactFractionChecker
from repro.statics.checkers.lock_discipline import LockDisciplineChecker
from repro.statics.checkers.obs_seam import ObsSeamChecker

from tests.statics.helpers import lint, rules_hit


# ----------------------------------------------------------------------
# constant-time
# ----------------------------------------------------------------------
def test_constant_time_flags_secret_named_equality():
    source = ("def verify(device_key, expected_mac, got):\n"
              "    return expected_mac == got\n")
    findings = lint(ConstantTimeChecker(), source)
    assert len(findings) == 1
    assert "expected_mac" in findings[0].message


def test_constant_time_flags_digest_membership():
    source = "bad = response.digest in known_digests\n"
    assert rules_hit(ConstantTimeChecker(), source) == ["constant-time"]


def test_constant_time_ignores_label_and_constant_comparisons():
    source = ("ok1 = mac_name == 'hmac-sha256'\n"
              "ok2 = digest_size == 32\n"
              "ok3 = algo in ('hmac-sha1', 'hmac-sha256')\n")
    assert lint(ConstantTimeChecker(), source) == []


def test_constant_time_bare_key_is_a_dict_key_not_material():
    source = ("ok = key in mapping\n"
              "bad = enrollment.key == presented\n")
    findings = lint(ConstantTimeChecker(), source)
    assert len(findings) == 1
    assert findings[0].line == 2


def test_constant_time_exempts_the_implementation_module():
    source = "equal = left_digest == right_digest\n"
    assert lint(ConstantTimeChecker(), source,
                relpath="src/repro/crypto/constant_time.py") == []


def test_constant_time_pragma():
    source = ("# statics: ok(constant-time)\n"
              "seen = row_digest in published_digests\n")
    assert lint(ConstantTimeChecker(), source) == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_wall_clock_and_entropy():
    source = ("import os, time, random, uuid\n"
              "a = time.time()\n"
              "b = os.urandom(16)\n"
              "c = random.random()\n"
              "d = uuid.uuid4()\n")
    assert rules_hit(DeterminismChecker(), source) == ["determinism"] * 4


def test_determinism_flags_unseeded_random_construction():
    source = ("from random import Random\n"
              "rng = Random()\n")
    assert rules_hit(DeterminismChecker(), source) == ["determinism"]


def test_determinism_allows_seeded_rng_and_monotonic_clocks():
    source = ("import random, time\n"
              "rng = random.Random(42)\n"
              "t0 = time.perf_counter()\n"
              "t1 = time.monotonic()\n"
              "state = random.getstate()\n")
    assert lint(DeterminismChecker(), source) == []


def test_determinism_exempts_the_csprng_module():
    source = "import os\nseed = os.urandom(32)\n"
    assert lint(DeterminismChecker(), source,
                relpath="src/repro/crypto/csprng.py") == []


def test_determinism_pragma():
    source = ("import time\n"
              "stamp = time.time()  # statics: ok(determinism)\n")
    assert lint(DeterminismChecker(), source) == []


# ----------------------------------------------------------------------
# exact-fraction
# ----------------------------------------------------------------------
def test_exact_fraction_flags_float_threshold_wrapping():
    source = ("from fractions import Fraction\n"
              "limit = Fraction(max_mean_seconds)\n")
    findings = lint(ExactFractionChecker(), source)
    assert len(findings) == 1
    assert "Fraction(str(max_mean_seconds))" in findings[0].message


def test_exact_fraction_flags_float_into_sum_accumulator():
    source = "self._freshness_sum += 0.5\n"
    assert rules_hit(ExactFractionChecker(), source) == ["exact-fraction"]


def test_exact_fraction_flags_float_target_multiplication():
    source = "target = self.min_fraction * self.expected_devices\n"
    assert rules_hit(ExactFractionChecker(), source) == ["exact-fraction"]


def test_exact_fraction_allows_the_str_convention_and_exact_ops():
    source = ("from fractions import Fraction\n"
              "limit = Fraction(str(max_mean_seconds))\n"
              "ratio = Fraction(attested, expected)\n"
              "self._sum += Fraction(report_freshness)\n")
    assert lint(ExactFractionChecker(), source) == []


def test_exact_fraction_skips_test_files():
    source = "limit = Fraction(max_mean_seconds)\n"
    assert lint(ExactFractionChecker(), source,
                relpath="tests/obs/test_slo.py") == []


def test_exact_fraction_pragma():
    source = ("# statics: ok(exact-fraction)\n"
              "limit = Fraction(max_mean_seconds)\n")
    assert lint(ExactFractionChecker(), source) == []


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
def test_lock_discipline_flags_raw_store_calls_next_to_the_wrapper():
    source = (
        "class Sharded:\n"
        "    def __init__(self, store):\n"
        "        self.store = store\n"
        "        self.shared = _LockedStore(store)\n"
        "    def checkpoint(self):\n"
        "        self.store.checkpoint({}, {})\n")
    findings = lint(LockDisciplineChecker(), source)
    assert len(findings) == 1
    assert "bypassing _LockedStore" in findings[0].message


def test_lock_discipline_allows_the_wrapped_store_and_close():
    source = (
        "class Sharded:\n"
        "    def __init__(self, store):\n"
        "        self.store = store\n"
        "        self.shared = _LockedStore(store)\n"
        "    def checkpoint(self):\n"
        "        self.shared.checkpoint({}, {})\n"
        "    def close(self):\n"
        "        self.store.close()\n")
    assert lint(LockDisciplineChecker(), source) == []


def test_lock_discipline_without_a_wrapper_is_out_of_scope():
    source = (
        "class Plain:\n"
        "    def __init__(self, store):\n"
        "        self.store = store\n"
        "    def checkpoint(self):\n"
        "        self.store.checkpoint({}, {})\n")
    assert lint(LockDisciplineChecker(), source) == []


def test_lock_discipline_flags_blocking_calls_under_a_lock():
    source = ("import time\n"
              "def convoy(self):\n"
              "    with self._lock:\n"
              "        time.sleep(0.1)\n")
    findings = lint(LockDisciplineChecker(), source)
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message


def test_lock_discipline_allows_blocking_outside_the_lock():
    source = ("import time\n"
              "def polite(self):\n"
              "    with self._lock:\n"
              "        snapshot = dict(self._rows)\n"
              "    time.sleep(0.1)\n")
    assert lint(LockDisciplineChecker(), source) == []


def test_lock_discipline_flags_socket_and_join_under_lock():
    source = ("def bad(self):\n"
              "    with self._lock:\n"
              "        self.conn.send_bytes(b'x')\n"
              "        self.reader.join()\n")
    assert rules_hit(LockDisciplineChecker(), source) == \
        ["lock-discipline"] * 2


def test_lock_discipline_pragma():
    source = ("import time\n"
              "def tolerated(self):\n"
              "    with self._lock:\n"
              "        time.sleep(0.1)  # statics: ok(lock-discipline)\n")
    assert lint(LockDisciplineChecker(), source) == []


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
_CODEC_OK = (
    "OP_PING = 1\n"
    "OP_PONG = 2\n"
    "def send(conn, rid):\n"
    "    conn.send(pack(OP_PING, rid))\n"
    "    conn.send(pack(OP_PONG, rid))\n"
    "def dispatch(opcode):\n"
    "    if opcode == OP_PING:\n"
    "        return 'ping'\n"
    "    if opcode in (OP_PONG,):\n"
    "        return 'pong'\n")


def test_codec_round_trip_is_clean_including_tuple_dispatch():
    assert lint(CodecExhaustivenessChecker(), _CODEC_OK) == []


def test_codec_flags_encode_without_decode():
    source = ("OP_PING = 1\n"
              "OP_LOST = 2\n"
              "def send(conn, rid):\n"
              "    conn.send(pack(OP_PING, rid))\n"
              "    conn.send(pack(OP_LOST, rid))\n"
              "def dispatch(opcode):\n"
              "    return opcode == OP_PING\n")
    findings = lint(CodecExhaustivenessChecker(), source)
    assert len(findings) == 1
    assert "OP_LOST" in findings[0].message
    assert "never decoded" in findings[0].message


def test_codec_flags_decode_without_encode():
    source = ("OP_PING = 1\n"
              "OP_GHOST = 2\n"
              "def send(conn, rid):\n"
              "    conn.send(pack(OP_PING, rid))\n"
              "def dispatch(opcode):\n"
              "    return opcode in (OP_PING, OP_GHOST)\n")
    findings = lint(CodecExhaustivenessChecker(), source)
    assert len(findings) == 1
    assert "OP_GHOST" in findings[0].message
    assert "never encoded" in findings[0].message


def test_codec_single_opcode_module_is_out_of_scope():
    assert lint(CodecExhaustivenessChecker(), "OP_ONLY = 1\n") == []


def test_codec_flags_decode_paths_writing_through_views():
    source = ("def decode_task(frame):\n"
              "    view = memoryview(frame)\n"
              "    view[0] = 0\n"
              "    return view\n")
    findings = lint(CodecExhaustivenessChecker(), source)
    assert len(findings) == 1
    assert "read-only" in findings[0].message


def test_codec_decode_may_write_to_fresh_buffers():
    source = ("def decode_task(frame):\n"
              "    out = bytearray(4)\n"
              "    out[0] = frame[0]\n"
              "    return out\n")
    assert lint(CodecExhaustivenessChecker(), source) == []


def test_codec_pragma():
    source = ("def decode_task(frame):\n"
              "    frame[0] = 0  # statics: ok(codec)\n")
    assert lint(CodecExhaustivenessChecker(), source) == []


# ----------------------------------------------------------------------
# obs-seam
# ----------------------------------------------------------------------
def test_obs_seam_flags_primitive_imports_in_hot_paths():
    source = "from repro.obs.metrics import MetricsRegistry\n"
    findings = lint(ObsSeamChecker(), source,
                    relpath="src/repro/fleet/service.py")
    assert len(findings) == 1
    assert "Observability" in findings[0].message


def test_obs_seam_flags_primitive_construction_in_hot_paths():
    source = "registry = MetricsRegistry()\n"
    assert rules_hit(ObsSeamChecker(), source,
                     relpath="src/repro/core/verification.py") == \
        ["obs-seam"]


def test_obs_seam_allows_the_seam_itself_and_cold_paths():
    seam = "from repro.obs.service import Observability\n"
    assert lint(ObsSeamChecker(), seam,
                relpath="src/repro/fleet/service.py") == []
    primitives = "from repro.obs.metrics import MetricsRegistry\n"
    assert lint(ObsSeamChecker(), primitives,
                relpath="src/repro/experiments/fig6.py") == []
    assert lint(ObsSeamChecker(), primitives,
                relpath="src/repro/obs/export.py") == []


def test_obs_seam_pragma():
    source = ("# statics: ok(obs-seam)\n"
              "from repro.obs.metrics import Counter\n")
    assert lint(ObsSeamChecker(), source,
                relpath="src/repro/fleet/service.py") == []


# ----------------------------------------------------------------------
# crypto-seam
# ----------------------------------------------------------------------
def test_crypto_seam_flags_primitive_imports_outside_crypto():
    source = ("from repro.crypto.sha256 import sha256_digest\n"
              "import repro.crypto.hmac\n"
              "from repro.crypto import Blake2s, get_backend\n")
    findings = lint(CryptoSeamChecker(), source,
                    relpath="src/repro/smartplus/rom.py")
    assert [finding.line for finding in findings] == [1, 2, 3]
    assert "repro.crypto.backend" in findings[0].message
    assert "Blake2s" in findings[2].message
    assert "get_backend" not in findings[2].message


def test_crypto_seam_allows_primitives_inside_the_crypto_package():
    source = ("from repro.crypto.sha256 import Sha256\n"
              "from repro.crypto.hmac import Hmac\n")
    assert lint(CryptoSeamChecker(), source,
                relpath="src/repro/crypto/backend.py") == []


def test_crypto_seam_allows_the_backend_and_mac_seams():
    source = ("from repro.crypto.backend import resolve_backend\n"
              "from repro.crypto.mac import get_mac\n"
              "from repro.crypto.constant_time import constant_time_compare\n"
              "from repro.crypto import use_backend\n")
    assert lint(CryptoSeamChecker(), source,
                relpath="src/repro/hydra/secure_boot.py") == []


def test_crypto_seam_skips_tests_and_honours_pragmas():
    source = "from repro.crypto.sha1 import Sha1\n"
    assert lint(CryptoSeamChecker(), source,
                relpath="tests/crypto/test_sha1.py") == []
    pragma = ("# statics: ok(crypto-seam)\n"
              "from repro.crypto.sha1 import Sha1\n")
    assert lint(CryptoSeamChecker(), pragma,
                relpath="src/repro/hw/codesize.py") == []
