#!/usr/bin/env python3
"""Self-test for scripts/dpack_lint.py: every rule must fire on its seeded fixture
violation and stay quiet on the near-miss fixture and the real tree. This is what keeps
the lint gate honest — a rule that silently stops matching fails here, not in review."""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
LINT = os.path.join(REPO_ROOT, "scripts", "dpack_lint.py")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# fixture file -> (lint-as repo path, rules that must fire)
VIOLATIONS = {
    "raw_mutex_violation.cc": ("src/common/queue.cc", {"raw-mutex"}),
    "raw_affinity_violation.cc": ("src/core/pinning.cc", {"raw-affinity"}),
    "raw_sleep_violation.cc": ("src/service/waits.cc", {"raw-sleep"}),
    "unordered_iteration_violation.cc": ("src/core/order.cc", {"unordered-iteration"}),
    "unordered_member_violation.cc": ("src/core/tracker.cc", {"unordered-member"}),
    "nondeterministic_source_violation.cc": ("src/core/jitter.cc",
                                             {"nondeterministic-source"}),
    "pointer_keyed_order_violation.cc": ("src/block/scores.cc", {"pointer-keyed-order"}),
    "float_equality_violation.cc": ("src/block/budget.cc", {"float-equality"}),
}


def run_lint(*args):
    return subprocess.run([sys.executable, LINT, "--root", REPO_ROOT, *args],
                          capture_output=True, text=True)


class FixtureViolations(unittest.TestCase):
    def test_every_rule_fires_on_its_seeded_violation(self):
        for fixture, (as_path, rules) in VIOLATIONS.items():
            with self.subTest(fixture=fixture):
                proc = run_lint("--fixture", os.path.join(FIXTURES, fixture),
                                "--as", as_path)
                self.assertEqual(proc.returncode, 1,
                                 f"{fixture} should be rejected:\n{proc.stdout}")
                for rule in rules:
                    self.assertIn(f"[{rule}]", proc.stdout,
                                  f"{fixture} should trip {rule}:\n{proc.stdout}")

    def test_violations_fire_regardless_of_header_or_source_suffix(self):
        proc = run_lint("--fixture",
                        os.path.join(FIXTURES, "unordered_member_violation.cc"),
                        "--as", "src/core/tracker.h")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[unordered-member]", proc.stdout)

    def test_grant_ordering_rules_scoped_to_grant_dirs(self):
        # The same unordered iteration outside src/core|src/block|src/service is not in
        # scope (the raw-mutex rule is the only tree-wide one).
        proc = run_lint("--fixture",
                        os.path.join(FIXTURES, "unordered_iteration_violation.cc"),
                        "--as", "src/workload/order.cc")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_float_equality_reaches_src_workload(self):
        # Trace readers reparse budget doubles from text, where a bare == against a grid
        # value is the same representation trap as in the engines — so float-equality's
        # scope extends to src/workload while the other grant-ordering rules stay out
        # (test_grant_ordering_rules_scoped_to_grant_dirs above proves the non-widening).
        proc = run_lint("--fixture",
                        os.path.join(FIXTURES, "float_equality_violation.cc"),
                        "--as", "src/workload/trace_cmp.cc")
        self.assertEqual(proc.returncode, 1,
                         f"float-equality must fire in src/workload:\n{proc.stdout}")
        self.assertIn("[float-equality]", proc.stdout)

    def test_grant_ordering_rules_cover_the_service(self):
        # The multi-process service is grant-ordering code: the daemon merges scores and
        # the workers replicate scoring, so hash-order and wall-clock leaks there are as
        # fatal as in src/core. Every scoped rule must fire on src/service paths.
        service_scope = {
            "unordered_iteration_violation.cc": ("src/service/merge.cc",
                                                 "unordered-iteration"),
            "unordered_member_violation.cc": ("src/service/replica.h",
                                              "unordered-member"),
            "nondeterministic_source_violation.cc": ("src/service/deadline.cc",
                                                     "nondeterministic-source"),
            "pointer_keyed_order_violation.cc": ("src/service/routing.cc",
                                                 "pointer-keyed-order"),
            "float_equality_violation.cc": ("src/service/admission.cc",
                                            "float-equality"),
            "raw_mutex_violation.cc": ("src/service/transport_patch.cc", "raw-mutex"),
        }
        for fixture, (as_path, rule) in service_scope.items():
            with self.subTest(fixture=fixture, as_path=as_path):
                proc = run_lint("--fixture", os.path.join(FIXTURES, fixture),
                                "--as", as_path)
                self.assertEqual(proc.returncode, 1,
                                 f"{fixture} at {as_path} should be rejected:\n"
                                 f"{proc.stdout}")
                self.assertIn(f"[{rule}]", proc.stdout,
                              f"{fixture} at {as_path} should trip {rule}:\n"
                              f"{proc.stdout}")


class RawSleep(unittest.TestCase):
    def test_fires_on_every_call_form(self):
        # One finding per marked line: usleep, sleep, nanosleep, clock_nanosleep,
        # std::this_thread::sleep_for/sleep_until, poll, ::poll, ppoll.
        fixture = os.path.join(FIXTURES, "raw_sleep_violation.cc")
        with open(fixture) as fh:
            marked = sum(1 for line in fh if line.rstrip().endswith("// raw-sleep"))
        for as_path in ("src/service/waits.cc", "src/orchestrator/pacing.cc",
                        "src/common/poller.h"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", fixture, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertEqual(proc.stdout.count("[raw-sleep]"), marked, proc.stdout)

    def test_near_misses_stay_quiet(self):
        # Member calls (.poll/->poll), longer identifiers (PollOnce, Poll), a variable named
        # poll, comments, strings, and the sanctioned helpers.
        proc = run_lint("--fixture", os.path.join(FIXTURES, "raw_sleep_clean.cc"),
                        "--as", "src/service/waits.cc")
        self.assertEqual(proc.returncode, 0, f"near-miss fixture must be clean:\n{proc.stdout}")

    def test_scoped_to_src(self):
        # Tests and benches may sleep: the rule guards the library's budgeted waits.
        for as_path in ("tests/service/waits_test.cc", "bench/pacing.cc"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", os.path.join(FIXTURES, "raw_sleep_violation.cc"),
                                "--as", as_path)
                self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_sleep_pair_is_the_only_raw_sleep_site(self):
        # The exemption is exactly src/common/sleep.{h,cc}: their own source linted as any
        # other src/ path must fire.
        source = os.path.join(REPO_ROOT, "src", "common", "sleep.cc")
        for as_path in ("src/common/sleep2.cc", "src/service/transport.cc"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", source, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn("[raw-sleep]", proc.stdout)


class NearMisses(unittest.TestCase):
    def test_clean_fixture_produces_zero_findings(self):
        proc = run_lint("--fixture", os.path.join(FIXTURES, "clean.cc"),
                        "--as", "src/core/clean.cc")
        self.assertEqual(proc.returncode, 0,
                         f"near-miss fixture must be clean:\n{proc.stdout}")

    def test_allow_annotation_requires_a_reason(self):
        # An allow without a reason is not an allow: the annotation is a reviewed claim.
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as fh:
            fh.write("#include <unordered_map>\n"
                     "// dpack-lint: allow(unordered-member):\n"
                     "std::unordered_map<int, int> m;\n")
            path = fh.name
        try:
            proc = run_lint("--fixture", path, "--as", "src/core/m.cc")
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("[unordered-member]", proc.stdout)
        finally:
            os.unlink(path)

    def test_allow_for_the_wrong_rule_does_not_suppress(self):
        with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as fh:
            fh.write("#include <unordered_map>\n"
                     "// dpack-lint: allow(float-equality): wrong rule name.\n"
                     "std::unordered_map<int, int> m;\n")
            path = fh.name
        try:
            proc = run_lint("--fixture", path, "--as", "src/core/m.cc")
            self.assertEqual(proc.returncode, 1, proc.stdout)
        finally:
            os.unlink(path)


class RealTree(unittest.TestCase):
    def test_tree_is_clean(self):
        proc = run_lint()
        self.assertEqual(proc.returncode, 0,
                         f"the real tree must lint clean:\n{proc.stdout}{proc.stderr}")

    def test_thread_annotations_header_is_the_only_raw_mutex_site(self):
        # The exemption is exactly one file; linting the header's own content as any other
        # path must fire, proving the exemption cannot widen silently.
        header = os.path.join(REPO_ROOT, "src", "common", "thread_annotations.h")
        proc = run_lint("--fixture", header, "--as", "src/common/other_header.h")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("[raw-mutex]", proc.stdout)

    def test_cpu_affinity_pair_is_the_only_raw_affinity_site(self):
        # Same exemption-cannot-widen proof for raw-affinity: the real helper's own source
        # linted as any other path must fire. Exercised in every code dir the rule covers.
        source = os.path.join(REPO_ROOT, "src", "common", "cpu_affinity.cc")
        for as_path in ("src/core/pin.cc", "src/common/affinity2.cc",
                        "bench/pin_leg.cc", "tests/core/pin_test.cc",
                        "examples/pin_demo.cpp"):
            with self.subTest(as_path=as_path):
                proc = run_lint("--fixture", source, "--as", as_path)
                self.assertEqual(proc.returncode, 1, proc.stdout)
                self.assertIn("[raw-affinity]", proc.stdout)


if __name__ == "__main__":
    unittest.main()
