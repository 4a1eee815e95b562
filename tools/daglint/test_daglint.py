#!/usr/bin/env python3
"""daglint self-test: seeds one deliberate violation per rule class and
asserts the checker flags it (and stays quiet on the clean twin). Run via
ctest (`daglint_selftest`) or directly: python3 tools/daglint/test_daglint.py
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import daglint  # noqa: E402


def lint_snippet(relpath: str, code: str, rules=None):
    """Writes `code` at `relpath` under a temp tree and lints it."""
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / relpath
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(code, encoding="utf-8")
        active = set(rules) if rules else set(daglint.ALL_RULES)
        return daglint.check_file(f, code, active)


def rules_of(findings):
    return {f.rule for f in findings}


class QuorumArith(unittest.TestCase):
    def test_inline_2f_plus_1_flagged(self):
        findings = lint_snippet(
            "src/rbc/bad.cpp",
            "void f(Committee c) {\n"
            "  if (echoes.size() >= 2 * c.f + 1) deliver();\n"
            "}\n")
        self.assertIn("quorum-arith", rules_of(findings))

    def test_off_by_one_small_quorum_flagged(self):
        findings = lint_snippet(
            "src/core/bad.cpp",
            "bool ok(std::size_t readies, uint32_t f) {\n"
            "  return readies >= f + 1;\n"
            "}\n")
        self.assertIn("quorum-arith", rules_of(findings))

    def test_named_helpers_clean(self):
        findings = lint_snippet(
            "src/rbc/good.cpp",
            "void f(Committee c) {\n"
            "  if (echoes.size() >= c.quorum()) deliver();\n"
            "  if (readies.size() >= c.small_quorum()) ready();\n"
            "  if (shares.size() >= weak_quorum_f1(c.n)) reveal();\n"
            "}\n")
        self.assertEqual(rules_of(findings), set())

    def test_types_hpp_definition_site_exempt(self):
        findings = lint_snippet(
            "src/common/types.hpp",
            "constexpr std::uint32_t quorum() const { return 2 * f + 1; }\n")
        self.assertEqual(rules_of(findings), set())

    def test_comments_not_flagged(self):
        findings = lint_snippet(
            "src/rbc/doc.cpp",
            "// on 2f+1 ECHO(m): READY(m) to all; amplification at f + 1 <= n\n"
            "/* quorum is 2 * f + 1 by Lemma 4 */\n")
        self.assertEqual(rules_of(findings), set())


class ThreadPrimitive(unittest.TestCase):
    def test_mutex_in_protocol_code_flagged(self):
        findings = lint_snippet(
            "src/dag/bad.hpp",
            "class Builder {\n  std::mutex mu_;\n};\n")
        self.assertIn("thread-primitive", rules_of(findings))

    def test_mutex_in_net_allowed(self):
        findings = lint_snippet(
            "src/net/inbox.hpp",
            "class Inbox {\n  mutable std::mutex mu_;\n"
            "  std::condition_variable cv_;\n};\n")
        self.assertEqual(rules_of(findings), set())

    def test_atomic_in_node_allowed(self):
        findings = lint_snippet(
            "src/node/node.hpp",
            "std::atomic<bool> running_{false};\n")
        self.assertEqual(rules_of(findings), set())


class BlockingCall(unittest.TestCase):
    def test_sleep_in_rbc_flagged(self):
        findings = lint_snippet(
            "src/rbc/bad.cpp",
            "void on_message() {\n"
            "  std::this_thread::sleep_for(std::chrono::seconds(1));\n}\n")
        self.assertIn("blocking-call", rules_of(findings))

    def test_cv_wait_in_core_flagged(self):
        findings = lint_snippet(
            "src/core/bad.cpp",
            "void f() { cv.wait(lk, [] { return done; }); }\n")
        self.assertIn("blocking-call", rules_of(findings))

    def test_raw_recv_in_dag_flagged(self):
        findings = lint_snippet(
            "src/dag/bad.cpp",
            "ssize_t k = ::recv(fd, buf, len, 0);\n")
        self.assertIn("blocking-call", rules_of(findings))

    def test_recv_in_net_allowed(self):
        findings = lint_snippet(
            "src/net/tcp.cpp",
            "const ssize_t k = ::recv(fd, data + off, len - off, 0);\n")
        self.assertNotIn("blocking-call", rules_of(findings))


class RawRandom(unittest.TestCase):
    def test_rand_flagged(self):
        findings = lint_snippet(
            "src/coin/bad.cpp",
            "uint64_t coin() { return rand() % 2; }\n")
        self.assertIn("raw-random", rules_of(findings))

    def test_random_device_flagged(self):
        findings = lint_snippet(
            "src/sim/bad.cpp",
            "std::mt19937 rng{std::random_device{}()};\n")
        self.assertIn("raw-random", rules_of(findings))

    def test_seeded_xoshiro_clean(self):
        findings = lint_snippet(
            "src/sim/good.cpp",
            "Xoshiro256 rng(seed);\nstd::mt19937 engine(seed);\n")
        self.assertEqual(rules_of(findings), set())


class NodiscardDecode(unittest.TestCase):
    def test_unattributed_bool_decode_flagged(self):
        findings = lint_snippet(
            "src/app/bad.hpp",
            "static bool decode(BytesView data, KvCommand& out);\n")
        self.assertIn("nodiscard-decode", rules_of(findings))

    def test_expected_return_accepted_via_class_attribute(self):
        # Expected<T> is a [[nodiscard]] class; the compiler enforces
        # consumption, so the declaration needs no extra attribute.
        findings = lint_snippet(
            "src/net/good.hpp",
            "Expected<Handshake> decode_handshake(BytesView data);\n")
        self.assertEqual(rules_of(findings), set())

    def test_attributed_decode_clean(self):
        findings = lint_snippet(
            "src/net/good.hpp",
            "[[nodiscard]] Expected<Handshake> decode_handshake(BytesView d);\n")
        self.assertEqual(rules_of(findings), set())

    def test_attribute_on_previous_line_clean(self):
        findings = lint_snippet(
            "src/dag/good.hpp",
            "[[nodiscard]]\nstatic Expected<Vertex> deserialize(BytesView data);\n")
        self.assertEqual(rules_of(findings), set())

    def test_out_of_line_definition_exempt(self):
        findings = lint_snippet(
            "src/dag/good.cpp",
            "Expected<Vertex> Vertex::deserialize(BytesView data) {\n"
            "  return parse(data);\n}\n")
        self.assertEqual(rules_of(findings), set())


class Suppression(unittest.TestCase):
    def test_allow_comment_suppresses(self):
        findings = lint_snippet(
            "src/rbc/special.cpp",
            "if (n >= 2 * f + 1) {}  // daglint: allow(quorum-arith)\n")
        self.assertEqual(rules_of(findings), set())

    def test_allow_of_other_rule_does_not_suppress(self):
        findings = lint_snippet(
            "src/rbc/special.cpp",
            "if (n >= 2 * f + 1) {}  // daglint: allow(raw-random)\n")
        self.assertIn("quorum-arith", rules_of(findings))


class FileIo(unittest.TestCase):
    def test_fstream_in_core_flagged(self):
        findings = lint_snippet(
            "src/core/dag_rider.cpp",
            '#include <fstream>\nstd::ofstream log("rider.log");\n')
        self.assertIn("file-io", rules_of(findings))

    def test_fopen_in_node_flagged(self):
        findings = lint_snippet(
            "src/node/node.cpp",
            'FILE* f = std::fopen("wal.bin", "ab");\n')
        self.assertIn("file-io", rules_of(findings))

    def test_std_filesystem_in_dag_flagged(self):
        findings = lint_snippet(
            "src/dag/builder.cpp",
            "std::filesystem::resize_file(p, n);\n")
        self.assertIn("file-io", rules_of(findings))

    def test_storage_dir_allowed(self):
        findings = lint_snippet(
            "src/storage/store.cpp",
            'FILE* f = std::fopen("wal.bin", "ab");\n'
            "std::filesystem::resize_file(p, n);\n")
        self.assertEqual(rules_of(findings), set())


class PayloadHash(unittest.TestCase):
    def test_bare_sha256_in_rbc_flagged(self):
        findings = lint_snippet(
            "src/rbc/bad.cpp",
            "void on_echo(BytesView blob) {\n"
            "  const auto d = crypto::sha256(blob);\n}\n")
        self.assertIn("payload-hash", rules_of(findings))

    def test_unqualified_sha256_in_node_flagged(self):
        findings = lint_snippet(
            "src/node/bad.cpp",
            "using namespace crypto;\nauto d = sha256(block);\n")
        self.assertIn("payload-hash", rules_of(findings))

    def test_sha256_tagged_exempt(self):
        # Domain-separated transcript hashing, not a payload re-hash.
        findings = lint_snippet(
            "src/rbc/good.cpp",
            'auto d = crypto::sha256_tagged("gossip-id", blob);\n')
        self.assertEqual(rules_of(findings), set())

    def test_crypto_dir_exempt(self):
        findings = lint_snippet(
            "src/crypto/merkle.cpp",
            "auto h = crypto::sha256(concat);\n")
        self.assertEqual(rules_of(findings), set())

    def test_allowlisted_codec_boundary_exempt(self):
        findings = lint_snippet(
            "src/net/payload.cpp",
            "rep_->digest_memo = crypto::sha256(view());\n")
        self.assertEqual(rules_of(findings), set())

    def test_payload_digest_call_clean(self):
        findings = lint_snippet(
            "src/node/good.cpp",
            "const crypto::Digest d = payload.digest();\n")
        self.assertEqual(rules_of(findings), set())

    def test_allow_comment_suppresses(self):
        findings = lint_snippet(
            "src/core/special.cpp",
            "auto d = crypto::sha256(b);  // daglint: allow(payload-hash)\n")
        self.assertEqual(rules_of(findings), set())


class IngressBlocking(unittest.TestCase):
    def test_raw_recv_in_ingress_server_flagged(self):
        findings = lint_snippet(
            "src/ingress/server.cpp",
            "ssize_t n = ::recv(fd, buf, len, 0);\n")
        self.assertIn("ingress-blocking", rules_of(findings))

    def test_sleep_in_ingress_client_flagged(self):
        findings = lint_snippet(
            "src/ingress/client.cpp",
            "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n")
        self.assertIn("ingress-blocking", rules_of(findings))

    def test_cv_wait_in_ingress_flagged(self):
        findings = lint_snippet(
            "src/ingress/mempool.cpp",
            "cv.wait(lk, [] { return done; });\n")
        self.assertIn("ingress-blocking", rules_of(findings))

    def test_sockets_cpp_is_the_sanctioned_site(self):
        findings = lint_snippet(
            "src/ingress/sockets.cpp",
            "ssize_t n = ::recv(fd, buf, len, MSG_DONTWAIT);\n"
            "ssize_t m = ::send(fd, buf, len, MSG_DONTWAIT);\n")
        self.assertNotIn("ingress-blocking", rules_of(findings))

    def test_wrapper_and_member_calls_clean(self):
        # sock:: wrappers and qualified member definitions must not hit the
        # raw-syscall pattern.
        findings = lint_snippet(
            "src/ingress/good.cpp",
            "auto io = sock::recv_some(fd, buf, len, got);\n"
            "bool Client::connect(int timeout_ms) { return true; }\n"
            "sock::poll_fds(pfds.data(), pfds.size(), 1);\n")
        self.assertEqual(rules_of(findings), set())

    def test_outside_ingress_out_of_scope(self):
        findings = lint_snippet(
            "src/net/tcp.cpp",
            "ssize_t n = ::recv(fd, buf, len, 0);\n")
        self.assertNotIn("ingress-blocking", rules_of(findings))

    def test_allow_comment_suppresses(self):
        findings = lint_snippet(
            "src/ingress/special.cpp",
            "::recv(fd, b, n, 0);  // daglint: allow(ingress-blocking)\n")
        self.assertEqual(rules_of(findings), set())

    def test_thread_primitives_allowed_in_ingress(self):
        # src/ingress/ is a sanctioned concurrency boundary like net/node.
        findings = lint_snippet(
            "src/ingress/server.hpp",
            "std::mutex acks_mu_;\nstd::atomic<bool> running_{false};\n")
        self.assertEqual(rules_of(findings), set())


class ChaosSeeded(unittest.TestCase):
    def test_literal_seeded_rng_in_chaos_file_flagged(self):
        findings = lint_snippet(
            "src/net/chaos_extra.cpp",
            "Xoshiro256 rng(42);\n")
        self.assertIn("chaos-seeded", rules_of(findings))

    def test_state_seeded_temporary_in_soak_file_flagged(self):
        findings = lint_snippet(
            "src/node/soak_util.cpp",
            "const double u = unit(SplitMix64(counter_++));\n")
        self.assertIn("chaos-seeded", rules_of(findings))

    def test_seed_derived_rng_clean(self):
        findings = lint_snippet(
            "src/net/chaos.cpp",
            "Xoshiro256 rng(seed ^ 0xC0A05EEDULL);\n"
            "SplitMix64 h(opts.seed ^ kSoakSeedTweak);\n")
        self.assertEqual(rules_of(findings), set())

    def test_member_declaration_without_ctor_clean(self):
        findings = lint_snippet(
            "src/net/chaos.hpp",
            "class X {\n  SplitMix64 rng_;\n  void f(SplitMix64& h);\n};\n")
        self.assertEqual(rules_of(findings), set())

    def test_non_chaos_file_out_of_scope(self):
        findings = lint_snippet(
            "src/sim/delay.cpp",
            "Xoshiro256 rng(42);\n")
        self.assertNotIn("chaos-seeded", rules_of(findings))

    def test_allow_comment_suppresses(self):
        findings = lint_snippet(
            "src/net/chaos_fixture.cpp",
            "Xoshiro256 rng(7);  // daglint: allow(chaos-seeded)\n")
        self.assertEqual(rules_of(findings), set())


class StripComments(unittest.TestCase):
    def test_line_numbers_preserved(self):
        text = "int a;\n/* two\nline comment */\nstd::mutex bad;\n"
        findings = lint_snippet("src/core/f.cpp", text)
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [("thread-primitive", 4)])

    def test_string_literals_ignored(self):
        findings = lint_snippet(
            "src/core/f.cpp",
            'const char* s = "2 * f + 1 std::mutex rand()";\n')
        self.assertEqual(rules_of(findings), set())


class TreeIsClean(unittest.TestCase):
    """The acceptance gate run by CI: the real tree has zero findings."""

    def test_src_tree_clean(self):
        repo = Path(__file__).resolve().parents[2]
        rc = daglint.main([str(repo / "src")])
        self.assertEqual(rc, 0, "daglint found violations in src/")


if __name__ == "__main__":
    unittest.main(verbosity=2)
