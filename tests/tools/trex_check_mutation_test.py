#!/usr/bin/env python3
"""Demonstration-revert test for tools/trex_check.py.

Proves the checker is load-bearing, not decorative: a pristine copy of
src/ passes, and reverting a protected property — stripping one
[[nodiscard]] from a Status-returning header declaration, re-adding a
float accumulation under unordered iteration, adding one upward include,
reusing a fault-site name, adding a raw `std::mutex`, or re-adding a
test-only `_for_test` hook — makes the checker fail with the right
check name.

Usage: trex_check_mutation_test.py --root <repo root>
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile


def run_checker(repo_root, tree_root):
    proc = subprocess.run(
        [sys.executable, os.path.join(repo_root, "tools", "trex_check.py"),
         "--root", tree_root],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def copy_tree(repo_root, dest):
    shutil.copytree(os.path.join(repo_root, "src"),
                    os.path.join(dest, "src"))


def find_file_with(root, subdir, pattern, suffix=".h"):
    rx = re.compile(pattern)
    base = os.path.join(root, subdir)
    for dirpath, dirnames, names in os.walk(base):
        dirnames.sort()
        for name in sorted(names):
            if not name.endswith(suffix):
                continue
            full = os.path.join(dirpath, name)
            with open(full, encoding="utf-8") as f:
                text = f.read()
            if rx.search(text):
                return full, text
    raise AssertionError(f"no file under {subdir} matches {pattern}")


FLOAT_FOLD_SNIPPET = """
namespace trex {
namespace mutation_test_detail {
inline double UnorderedFoldForMutationTest(
    const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {
    total += kv.second;
  }
  return total;
}
}  // namespace mutation_test_detail
}  // namespace trex
"""


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    repo_root = os.path.abspath(args.root)

    failures = []

    def check(label, mutate, expect_check):
        with tempfile.TemporaryDirectory(prefix="trex_mut_") as tmp:
            copy_tree(repo_root, tmp)
            mutate(tmp)
            code, out = run_checker(repo_root, tmp)
            if code == 0:
                failures.append(f"{label}: checker passed a mutated tree")
            elif f"[{expect_check}]" not in out:
                failures.append(
                    f"{label}: failed, but not with [{expect_check}]:\n"
                    f"{out[:800]}")
            else:
                print(f"ok: {label} -> [{expect_check}]")

    # Baseline: the pristine tree must be clean, otherwise the mutation
    # outcomes are meaningless.
    with tempfile.TemporaryDirectory(prefix="trex_mut_") as tmp:
        copy_tree(repo_root, tmp)
        code, out = run_checker(repo_root, tmp)
        if code != 0:
            print(f"FAIL: pristine src/ is not clean:\n{out}",
                  file=sys.stderr)
            return 1
        print("ok: pristine tree is clean")

    def strip_nodiscard(tmp):
        # Remove the first per-declaration [[nodiscard]] from a header
        # Status/Result declaration (keep the class-level attribute on
        # Status itself out of scope: match only declaration lines).
        decl = (r"\[\[nodiscard\]\] ((?:static )?"
                r"(?:Status|Result<[^;\n]*>)\s+\w+\s*\()")
        full, text = find_file_with(tmp, "src", decl)
        new = re.sub(decl, r"\1", text, count=1)
        assert new != text
        with open(full, "w", encoding="utf-8") as f:
            f.write(new)

    def inject_float_fold(tmp):
        full = os.path.join(tmp, "src", "core", "game.h")
        with open(full, encoding="utf-8") as f:
            text = f.read()
        # Splice the bad fold in before the final include guard #endif.
        idx = text.rindex("#endif")
        text = (text[:idx] + "#include <unordered_map>\n"
                + FLOAT_FOLD_SNIPPET + "\n" + text[idx:])
        with open(full, "w", encoding="utf-8") as f:
            f.write(text)

    def upward_include(tmp):
        full = os.path.join(tmp, "src", "core", "game.h")
        with open(full, encoding="utf-8") as f:
            text = f.read()
        with open(full, "w", encoding="utf-8") as f:
            f.write('#include "serving/service.h"\n' + text)

    def duplicate_fault_site(tmp):
        # Rename the serving layer's injection site to one the repair
        # layer already owns: two code paths would share one schedule
        # and one hit counter.
        full = os.path.join(tmp, "src", "serving", "service.cc")
        with open(full, encoding="utf-8") as f:
            text = f.read()
        new = text.replace('TREX_FAULT_INJECT("serving.execute")',
                           'TREX_FAULT_INJECT("repair.backend")')
        assert new != text
        with open(full, "w", encoding="utf-8") as f:
            f.write(new)

    def raw_mutex(tmp):
        # A raw std::mutex is invisible to -Wthread-safety.
        full = os.path.join(tmp, "src", "core", "engine.cc")
        with open(full, encoding="utf-8") as f:
            text = f.read()
        with open(full, "w", encoding="utf-8") as f:
            f.write(text + "\n#include <mutex>\n"
                    "namespace trex {\nstd::mutex mutation_mu;\n}\n")

    def test_hook(tmp):
        # A test-only override on the memo's box: a second path through
        # the hot code that only tests take.
        full = os.path.join(tmp, "src", "core", "repair_game.h")
        with open(full, encoding="utf-8") as f:
            text = f.read()
        new = text.replace(
            "  void set_cache_enabled(bool enabled)",
            "  void set_cache_enabled_for_test(bool enabled) {}\n"
            "  void set_cache_enabled(bool enabled)", 1)
        assert new != text
        with open(full, "w", encoding="utf-8") as f:
            f.write(new)

    check("strip one [[nodiscard]]", strip_nodiscard, "status-discipline")
    check("re-add unordered float fold", inject_float_fold,
          "unordered-determinism")
    check("add upward include", upward_include, "layering")
    check("reuse a fault site name across layers", duplicate_fault_site,
          "fault-site-discipline")
    check("add a raw std::mutex", raw_mutex, "raw-mutex")
    check("re-add a test-only hook", test_hook, "test-hook")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("trex_check mutation test: all reverts caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
