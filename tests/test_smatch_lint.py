"""Tests for the smatch-lint static analyzer (tools/smatch_lint).

Each rule gets three fixtures: a positive hit, a clean pass, and a
suppressed hit.  On top sit CLI-level tests (text/JSON formats, exit
codes, seeded-violation detection) and the gate that matters most: the
live ``src/`` tree must be violation-free.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.smatch_lint.cli import main
from tools.smatch_lint.engine import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent

CRYPTO_PATH = "src/repro/crypto/widget.py"
CORE_PATH = "src/repro/core/widget.py"


def codes(violations):
    return [v.code for v in violations]


def check(source: str, path: str = CORE_PATH):
    return lint_source(textwrap.dedent(source), path)


class TestSml001RandomImports:
    def test_import_random_flagged(self):
        found = check("import random\n")
        assert codes(found) == ["SML001"]
        assert "repro.utils.rand" in found[0].message

    def test_from_random_flagged(self):
        assert codes(check("from random import shuffle\n")) == ["SML001"]

    def test_aliased_import_flagged(self):
        assert codes(check("import random as rnd\n")) == ["SML001"]

    def test_facade_module_is_exempt(self):
        assert check("import random\n", "src/repro/utils/rand.py") == []

    def test_other_imports_clean(self):
        assert check("import secrets\nimport os\n") == []

    def test_suppression(self):
        src = "import random  # smatch-lint: disable=SML001\n"
        assert check(src) == []


class TestSml002SecretEquality:
    def test_secret_name_eq_flagged(self):
        found = check("def f(key, other):\n    return key == other\n")
        assert codes(found) == ["SML002"]
        assert "constant_time_eq" in found[0].message

    def test_attribute_and_noteq_flagged(self):
        src = """\
        def f(self, payload):
            if self._mac_key != payload:
                return True
        """
        assert codes(check(src)) == ["SML002"]

    def test_subscript_unwrapped(self):
        assert codes(check("def f(tags, x):\n    return tags[0] == x\n")) == [
            "SML002"
        ]

    def test_public_override_clean(self):
        src = """\
        def f(payload, mine):
            return payload.key_index == mine or payload.public_key == mine
        """
        assert check(src) == []

    def test_length_check_clean(self):
        assert check("def f(key):\n    return len(key) == 32\n") == []

    def test_is_none_clean(self):
        assert check("def f(key):\n    return key is None\n") == []

    def test_suppression(self):
        src = "def f(key, b):\n    return key == b  # smatch-lint: disable=SML002\n"
        assert check(src) == []


class TestSml003FloatArithmetic:
    def test_float_literal_flagged(self):
        assert codes(check("x = 0.5\n", CRYPTO_PATH)) == ["SML003"]

    def test_true_division_flagged(self):
        found = check("def f(a, b):\n    return a / b\n", CRYPTO_PATH)
        assert codes(found) == ["SML003"]
        assert found[0].line == 2

    def test_float_call_flagged(self):
        assert codes(check("def f(x):\n    return float(x)\n", CRYPTO_PATH)) == [
            "SML003"
        ]

    def test_aug_div_flagged(self):
        assert codes(check("def f(x):\n    x /= 2\n", CRYPTO_PATH)) == ["SML003"]

    def test_floor_division_clean(self):
        assert check("def f(a, b):\n    return a // b\n", CRYPTO_PATH) == []

    def test_ope_allowlisted(self):
        assert check("x = 0.5\n", "src/repro/crypto/ope.py") == []

    def test_outside_tcb_clean(self):
        assert check("x = 0.5\n", "src/repro/experiments/widget.py") == []

    def test_suppression(self):
        src = "x = 1 / 3  # smatch-lint: disable=SML003\n"
        assert check(src, CRYPTO_PATH) == []


class TestSml004ImportLayering:
    def test_absolute_import_flagged(self):
        found = check("from repro.server import storage\n", CRYPTO_PATH)
        assert codes(found) == ["SML004"]
        assert "repro.server" in found[0].message

    def test_plain_import_flagged(self):
        assert codes(check("import repro.net.channel\n", CRYPTO_PATH)) == [
            "SML004"
        ]

    def test_relative_import_flagged(self):
        # from crypto/widget.py, `from ..client import x` is repro.client
        assert codes(check("from ..client import device\n", CRYPTO_PATH)) == [
            "SML004"
        ]

    def test_relative_sibling_clean(self):
        assert check("from .kdf import hkdf\n", CRYPTO_PATH) == []

    def test_utils_import_clean(self):
        assert check("from repro.utils.ct import constant_time_eq\n", CRYPTO_PATH) == []

    def test_outside_tcb_clean(self):
        assert check("from repro.server import storage\n", "src/repro/sim/w.py") == []

    def test_suppression_file_wide(self):
        src = (
            "# smatch-lint: disable-file=SML004\n"
            "from repro.server import storage\n"
        )
        assert check(src, CRYPTO_PATH) == []


class TestSml005ExceptionHygiene:
    def test_bare_except_flagged(self):
        src = """\
        def f():
            try:
                g()
            except:
                pass
        """
        found = check(src)
        assert codes(found) == ["SML005"]
        assert "bare" in found[0].message

    def test_swallowed_exception_flagged(self):
        src = """\
        def f():
            try:
                g()
            except Exception:
                pass
        """
        assert codes(check(src)) == ["SML005"]

    def test_assert_flagged(self):
        found = check("def f(x):\n    assert x > 0\n")
        assert codes(found) == ["SML005"]
        assert "repro.errors" in found[0].message

    def test_typed_handler_clean(self):
        src = """\
        def f():
            try:
                g()
            except ValueError:
                pass
        """
        assert check(src) == []

    def test_broad_handler_with_reraise_clean(self):
        src = """\
        def f():
            try:
                g()
            except Exception:
                raise RuntimeError("wrapped")
        """
        assert check(src) == []

    def test_tests_exempt_from_assert_ban(self):
        assert check("def f(x):\n    assert x\n", "tests/test_widget.py") == []

    def test_suppression(self):
        src = "def f(x):\n    assert x  # smatch-lint: disable=SML005\n"
        assert check(src) == []


class TestSml006SecretLogging:
    def test_secret_fstring_to_logger_flagged(self):
        src = """\
        def f(log, key):
            log.info(f"derived {key}")
        """
        found = check(src)
        assert codes(found) == ["SML006"]
        assert "logging call" in found[0].message

    def test_secret_kwarg_to_logger_flagged(self):
        src = """\
        def f(_log, mac_key):
            _log.debug("derived", value=mac_key)
        """
        assert codes(check(src)) == ["SML006"]

    def test_secret_method_receiver_flagged(self):
        src = """\
        def f(logger, key):
            logger.warning("derived %s", key.hex())
        """
        assert codes(check(src)) == ["SML006"]

    def test_self_logger_attribute_flagged(self):
        src = """\
        def f(self, tag):
            self._log.error(f"bad tag {tag!r}")
        """
        assert codes(check(src)) == ["SML006"]

    def test_secret_in_exception_message_flagged(self):
        src = """\
        def f(key):
            raise ValueError(f"bad key {key}")
        """
        found = check(src)
        assert codes(found) == ["SML006"]
        assert "exception message" in found[0].message

    def test_length_is_public_clean(self):
        src = """\
        def f(log, key):
            log.info("derived key_len=%d", len(key))
            raise ValueError(f"need 32 bytes, got {len(key)}")
        """
        assert check(src) == []

    def test_public_names_clean(self):
        src = """\
        def f(log, payload):
            log.info("stored", index=payload.key_index, user=payload.user_id)
        """
        assert check(src) == []

    def test_non_logger_receiver_clean(self):
        src = """\
        def f(store, key):
            store.info(key)
        """
        assert check(src) == []

    def test_exception_without_secret_clean(self):
        src = """\
        def f(client):
            raise ValueError(f"client {client!r} over budget")
        """
        assert check(src) == []

    def test_suppression(self):
        src = (
            "def f(log, key):\n"
            "    log.info(f\"{key}\")  # smatch-lint: disable=SML006\n"
        )
        assert check(src) == []


SERVER_PATH = "src/repro/server/handler.py"
NET_PATH = "src/repro/net/framing.py"


class TestSml007TaintTiming:
    def test_secret_param_branch_flagged(self):
        src = """\
        def handle(request, profile_key):
            if profile_key == request.blob:
                return b"match"
            return b"no"
        """
        found = check(src, SERVER_PATH)
        assert "SML007" in codes(found)
        assert any("profile_key" in v.message for v in found)

    def test_multi_hop_through_helper_flagged(self):
        # secret -> local -> helper return -> branch: three hops, still caught
        src = """\
        def _mix(value, salt):
            return value + salt

        def handle(request, profile_key):
            local = profile_key
            derived = _mix(local, b"salt")
            if derived == request.blob:
                return b"match"
            return b"no"
        """
        found = check(src, SERVER_PATH)
        assert codes(found) == ["SML007"]
        assert "via local -> derived" in found[0].message

    def test_constant_time_twin_clean(self):
        # the same flow, laundered through constant_time_eq: no finding
        src = """\
        from repro.utils.ct import constant_time_eq

        def _mix(value, salt):
            return value + salt

        def handle(request, profile_key):
            local = profile_key
            derived = _mix(local, b"salt")
            if constant_time_eq(derived, request.blob):
                return b"match"
            return b"no"
        """
        assert check(src, SERVER_PATH) == []

    def test_secret_loop_bound_flagged(self):
        src = """\
        def handle(secret_rounds):
            total = 0
            for _ in range(secret_rounds):
                total += 1
            return total
        """
        found = check(src, SERVER_PATH)
        assert "SML007" in codes(found)

    def test_annotation_source_flagged(self):
        src = """\
        def handle(request):
            material = request.payload  # smatch-lint: secret
            if material:
                return b"y"
            return b"n"
        """
        found = check(src, SERVER_PATH)
        assert codes(found) == ["SML007"]
        assert "smatch-lint: secret" in found[0].message

    def test_registered_source_call_flagged(self):
        src = """\
        def handle(self, request):
            material = self.keygen.derive(request.values)
            while material:
                material = material[1:]
            return b"done"
        """
        assert "SML007" in codes(check(src, SERVER_PATH))

    def test_keyed_hmac_output_branch_flagged(self):
        # the keyed PRF object and its output are sources even when
        # nothing about the names involved looks secret
        src = """\
        from repro.utils.mac import HmacSha256

        def handle(self, request):
            expected = HmacSha256(self.session_material).mac(request.body)
            if expected == request.claimed:
                return b"ok"
            return b"refused"
        """
        found = check(src, SERVER_PATH)
        assert codes(found) == ["SML007"]
        assert "expected" in found[0].message

    @pytest.mark.parametrize("method", ["open", "open_many"])
    def test_cipher_open_output_branch_flagged(self, method):
        # the opened plaintext steers a branch: flagged for the
        # one-ciphertext open and for the several-ciphertext open alike
        src = f"""\
        def handle(self, request):
            opened = self._cipher.{method}(request.sealed)
            if opened == request.claimed:
                return b"ok"
            return b"refused"
        """
        found = check(src, SERVER_PATH)
        assert codes(found) == ["SML007"]
        assert "opened" in found[0].message

    def test_keyed_hmac_method_on_held_object_flagged(self):
        src = """\
        def handle(self, request):
            expected = self._prf.mac(request.body)
            if expected == request.claimed:
                return b"ok"
            return b"refused"
        """
        assert codes(check(src, SERVER_PATH)) == ["SML007"]

    def test_keyed_hmac_constant_time_twin_clean(self):
        src = """\
        from repro.utils.ct import constant_time_eq
        from repro.utils.mac import HmacSha256

        def handle(self, request):
            expected = HmacSha256(self.session_material).mac(request.body)
            if constant_time_eq(expected, request.claimed):
                return b"ok"
            return b"refused"
        """
        assert check(src, SERVER_PATH) == []

    def test_reassignment_kills_taint(self):
        src = """\
        def handle(profile_key):
            value = profile_key
            value = b"public"
            if value:
                return b"y"
            return b"n"
        """
        assert check(src, SERVER_PATH) == []

    def test_hash_sanitizer_clean(self):
        src = """\
        def handle(profile_key):
            commitment = sha256(profile_key)
            if commitment:
                return b"y"
            return b"n"
        """
        assert check(src, SERVER_PATH) == []

    def test_outside_scope_clean(self):
        src = """\
        def handle(profile_key, blob):
            if profile_key:
                return b"y"
            return b"n"
        """
        assert check(src, "src/repro/experiments/widget.py") == []

    def test_uppercase_constant_clean(self):
        src = """\
        def encode(self, w):
            if self.TAG:
                w.note(self.TAG)
        """
        assert check(src, NET_PATH) == []

    def test_suppression(self):
        src = """\
        def handle(profile_key):
            if profile_key:  # smatch-lint: disable=SML007
                return b"y"
            return b"n"
        """
        assert check(src, SERVER_PATH) == []


class TestSml008TaintWire:
    def test_secret_to_serializer_flagged(self):
        src = """\
        def encode(writer, session_key):
            writer.write_bytes(session_key)
        """
        found = check(src, NET_PATH)
        assert codes(found) == ["SML008"]
        assert "write_bytes" in found[0].message

    @pytest.mark.parametrize("sink", ["int_field", "bytes_field"])
    def test_secret_to_field_function_flagged(self, sink):
        src = f"""\
        def frame(parts, session_key):
            parts.append({sink}(session_key))
        """
        found = check(src, NET_PATH)
        assert codes(found) == ["SML008"]
        assert sink in found[0].message

    def test_secret_into_message_ctor_flagged(self):
        src = """\
        def reply(request, mac_key):
            return StatusResponse(request_id=request.request_id, proof=mac_key)
        """
        found = check(src, SERVER_PATH)
        assert codes(found) == ["SML008"]
        assert "StatusResponse" in found[0].message

    def test_sealed_payload_clean(self):
        # ciphertext from an approved encrypt call may cross the wire
        src = """\
        def send(channel, cipher, session_key, payload):
            sealed = cipher.seal(payload, key=session_key)
            channel.send(sealed)
        """
        assert check(src, NET_PATH) == []

    def test_public_fields_clean(self):
        src = """\
        def encode(writer, payload):
            writer.write_int(payload.user_id)
            writer.write_bytes(payload.key_index)
        """
        assert check(src, NET_PATH) == []

    def test_outside_scope_clean(self):
        src = """\
        def encode(writer, session_key):
            writer.write_bytes(session_key)
        """
        assert check(src, "src/repro/experiments/widget.py") == []

    def test_suppression(self):
        src = """\
        def encode(writer, session_key):
            writer.write_bytes(session_key)  # smatch-lint: disable=SML008
        """
        assert check(src, NET_PATH) == []


class TestSml009TaintSize:
    def test_bytes_allocation_flagged(self):
        src = """\
        def pad(session_key):
            return bytes(session_key[0])
        """
        found = check(src, NET_PATH)
        assert codes(found) == ["SML009"]
        assert "bytes()" in found[0].message

    def test_sequence_repetition_flagged(self):
        src = """\
        def pad(secret_width):
            return b"\\x00" * secret_width
        """
        found = check(src, NET_PATH)
        assert codes(found) == ["SML009"]
        assert "repetition" in found[0].message

    def test_range_padding_loop_flagged(self):
        src = """\
        def pad(out, secret_width):
            for _ in range(secret_width):
                out.append(0)
        """
        assert "SML009" in codes(check(src, NET_PATH))

    def test_to_bytes_width_flagged(self):
        src = """\
        def encode(value, secret_width):
            return value.to_bytes(secret_width, "big")
        """
        found = check(src, NET_PATH)
        assert codes(found) == ["SML009"]
        assert "to_bytes" in found[0].message

    def test_len_launder_clean(self):
        src = """\
        def pad(session_key):
            return b"\\x00" * len(session_key)
        """
        assert check(src, NET_PATH) == []

    def test_public_size_clean(self):
        src = """\
        def pad(block_size):
            return bytes(block_size)
        """
        assert check(src, NET_PATH) == []

    def test_suppression(self):
        src = """\
        def pad(secret_width):
            return bytes(secret_width)  # smatch-lint: disable=SML009
        """
        assert check(src, NET_PATH) == []


class TestUnusedSuppressionReporting:
    def unused(self, source: str, path: str = CORE_PATH):
        return lint_source(
            textwrap.dedent(source), path, report_unused_suppressions=True
        )

    def test_used_suppression_not_reported(self):
        src = "import random  # smatch-lint: disable=SML001\n"
        assert self.unused(src) == []

    def test_stale_line_suppression_reported(self):
        src = "import secrets  # smatch-lint: disable=SML001\n"
        found = self.unused(src)
        assert codes(found) == ["SML000"]
        assert "unused suppression of SML001" in found[0].message

    def test_stale_file_wide_suppression_reported(self):
        src = "# smatch-lint: disable-file=SML003\nx = 1\n"
        found = self.unused(src, CRYPTO_PATH)
        assert codes(found) == ["SML000"]
        assert "file-wide" in found[0].message

    def test_path_ignored_rule_not_reported_as_unused(self):
        # SML001 does not run under tests/, so a suppression there is
        # not provably stale and must not be flagged
        src = "import random  # smatch-lint: disable=SML001\n"
        assert self.unused(src, "tests/test_widget.py") == []

    def test_default_mode_stays_quiet(self):
        src = "import secrets  # smatch-lint: disable=SML001\n"
        assert check(src) == []


class TestPathRuleIgnores:
    def test_tests_exempt_from_sml001_and_sml002(self):
        src = """\
        import random

        def test_roundtrip(key, derived_key):
            assert key == derived_key
        """
        assert check(src, "tests/test_widget.py") == []

    def test_tests_still_get_taint_rules(self):
        src = """\
        def encode(writer, session_key):
            writer.write_bytes(session_key)
        """
        assert codes(check(src, "tests/repro/net/test_framing.py")) == ["SML008"]


class TestSuppressionDirectives:
    def test_file_wide_scope(self):
        src = (
            "# smatch-lint: disable-file=SML001\n"
            "import random\n"
            "import random as r2\n"
        )
        assert check(src) == []

    def test_line_scope_does_not_leak(self):
        src = (
            "import random  # smatch-lint: disable=SML001\n"
            "import random as r2\n"
        )
        assert codes(check(src)) == ["SML001"]

    def test_multiple_codes_one_directive(self):
        src = (
            "def f(key, b):\n"
            "    assert key == b  # smatch-lint: disable=SML002,SML005\n"
        )
        assert check(src) == []

    def test_unknown_code_reported(self):
        src = "x = 1  # smatch-lint: disable=SML999\n"
        found = check(src)
        assert codes(found) == ["SML000"]
        assert "SML999" in found[0].message

    def test_syntax_error_reported(self):
        found = check("def f(:\n")
        assert codes(found) == ["SML000"]


class TestLiveTree:
    def test_src_tree_is_violation_free(self):
        violations, files_checked = lint_paths([REPO_ROOT / "src"])
        assert files_checked > 50
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_tools_tree_is_violation_free(self):
        violations, _ = lint_paths([REPO_ROOT / "tools"])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_tests_tree_is_violation_free(self):
        violations, files_checked = lint_paths([REPO_ROOT / "tests"])
        assert files_checked > 10
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_no_stale_suppressions_anywhere(self):
        violations, _ = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tools", REPO_ROOT / "tests"],
            report_unused_suppressions=True,
        )
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_no_file_wide_suppressions_in_handlers(self):
        # the acceptance bar for the taint and concurrency rules: reviewed
        # line-level waivers only — never a blanket file-level one in the
        # boundary (net/, server/) or shared-state (parallel/, obs/) packages
        for directory in ("net", "server", "parallel", "obs"):
            for path in (REPO_ROOT / "src" / "repro" / directory).rglob("*.py"):
                assert "disable-file" not in path.read_text(encoding="utf-8"), path


class TestCli:
    @pytest.fixture()
    def seeded_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "crypto" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = 1 / 3\n", encoding="utf-8")
        return bad

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_exit_one_and_precise_report(self, seeded_file, capsys):
        assert main([str(seeded_file)]) == 1
        out = capsys.readouterr().out
        assert f"{seeded_file}:1:1: SML001" in out
        assert f"{seeded_file}:2:5: SML003" in out

    def test_json_format(self, seeded_file, capsys):
        assert main(["--format", "json", str(seeded_file)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 1
        assert report["counts"] == {"SML001": 1, "SML003": 1}
        assert {v["code"] for v in report["violations"]} == {"SML001", "SML003"}
        assert all(
            {"path", "line", "col", "message"} <= set(v) for v in report["violations"]
        )

    def test_select_and_ignore(self, seeded_file):
        assert main(["--select", "SML001", str(seeded_file)]) == 1
        assert main(["--ignore", "SML001,SML003", str(seeded_file)]) == 0

    def test_unknown_code_is_usage_error(self, seeded_file):
        assert main(["--select", "SML9", str(seeded_file)]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_no_paths_is_usage_error(self):
        assert main([]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "SML001",
            "SML002",
            "SML003",
            "SML004",
            "SML005",
            "SML006",
            "SML007",
            "SML008",
            "SML009",
        ):
            assert code in out

    def test_report_unused_suppressions_flag(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "import secrets  # smatch-lint: disable=SML001\n", encoding="utf-8"
        )
        assert main([str(stale)]) == 0
        assert main(["--report-unused-suppressions", str(stale)]) == 1
        assert "unused suppression" in capsys.readouterr().out

    def test_taint_debug_dump(self, tmp_path, capsys):
        handler = tmp_path / "src" / "repro" / "server" / "h.py"
        handler.parent.mkdir(parents=True)
        handler.write_text(
            "def handle(profile_key):\n"
            "    if profile_key:\n"
            "        return b'y'\n"
            "    return b'n'\n",
            encoding="utf-8",
        )
        assert main(["--taint-debug", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "handle" in out
        assert "branch@2" in out
        assert "profile_key" in out
