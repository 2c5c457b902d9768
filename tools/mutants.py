"""Mutation check for the translation search and its callers.

Each mutant is one textual edit of a source file. The script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies one mutant at a time there (the working tree is never touched),
runs the mutant's tests with ``pytest -x`` and prints the first test that
fails, or ``SURVIVED``. It exits 1 if any mutant survives.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

A rule that prunes the search is exact only if some test fails when the
rule is made slightly wrong; a PR that adds a rule adds its mutants here.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRANSLATIONS = "src/gcforge/translations.py"
PROPAGATION = "src/gcforge/propagation.py"
# fast tests first, so most mutants die within seconds
SEARCH_TESTS = (
    "tests/test_translations.py",
    "tests/test_acceptance.py::test_oracle_equivalence",
    "tests/test_propagation.py",
)
TIMEOUT_S = 1800
# a mutant that drops a size check asks for terabytes; under this cap the
# allocation fails at once wherever the kernel would overcommit it
ADDRESS_SPACE_CAP = 4 << 30


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...] = SEARCH_TESTS


MUTANTS = (
    # one integer search key and the clique bump
    Mutant("clique-bump-prunes-ties", TRANSLATIONS,
           "if any(bad) and _clique_bump(steps, bad, BW2, gap) > gap:",
           "if any(bad) and _clique_bump(steps, bad, BW2, gap) >= gap:"),
    Mutant("key-base-below-slot-count", TRANSLATIONS,
           "W = m + 1", "W = m - 1"),
    Mutant("pair-agreement-ignores-adjacency", TRANSLATIONS,
           "agree = ib & ors if na >> vb & 1 else ib & ~ands", "agree = ib & ors"),
    Mutant("clique-member-checked-against-seed-only", TRANSLATIONS,
           "cand &= bad[y]", "cand &= cand - 1"),
    Mutant("clique-keeps-from-zero", TRANSLATIONS,
           "enumerate(clique, 1)", "enumerate(clique)"),
    Mutant("clique-pairs-free", TRANSLATIONS,
           "rest + t * (t - 1) // 2 * penalty", "rest"),
    Mutant("cliques-share-slots", TRANSLATIONS,
           "free &= ~members", "pass"),
    # tie cuts at bound equality and the strict settle budget
    Mutant("images-reset-after-options-dropped", TRANSLATIONS,
           "return True\n        images[j] = -1\n", "return True\n"),
    Mutant("node-tie-on-total-only", TRANSLATIONS,
           "tied = bound == best[0]", "tied = bound // W2 == best[0] // W2"),
    Mutant("child-tie-on-total-only", TRANSLATIONS,
           "if child == best[0] and", "if child // W2 == best[0] // W2 and"),
    Mutant("strict-budget-on-equal-losses", PROPAGATION,
           "(bar[1] < losses)", "(bar[1] <= losses)"),
    Mutant("tie-node-branches-on-selected-slot", TRANSLATIONS,
           "j = unassigned[0] if tied or tie else min(", "j = unassigned[0] if tie else min("),
    # conflict levels per open slot, one incumbent, one lost-slot encoding
    Mutant("used-image-left-in-a-level", TRANSLATIONS,
           "others = ~(nu | 1 << u)", "others = ~nu"),
    Mutant("adjacency-inverted-in-conflicts", TRANSLATIONS,
           "keep, up = near if row_i >> verts[j] & 1 else far",
           "keep, up = far if row_i >> verts[j] & 1 else near"),
    Mutant("conflict-not-moved-up", TRANSLATIONS,
           "lv.append(x & keep | moved)", "lv.append(x & (keep | up))"),
    Mutant("level-above-loss-kept", TRANSLATIONS,
           "levels_kept = min(A // B, m - 1) + 1 if B else 1",
           "levels_kept = min(A // B + 1, m - 1) + 1 if B else 1"),
    Mutant("levels-beyond-the-slot-count", TRANSLATIONS,
           "levels_kept = min(A // B, m - 1) + 1 if B else 1",
           "levels_kept = A // B + 1 if B else 1"),
    Mutant("root-skips-the-center", TRANSLATIONS,
           "root, 0, target, 0)", "root, 0, lost, 0)"),
    Mutant("child-writes-parent-levels", TRANSLATIONS,
           "levels = levels[:]", "levels = levels"),
    Mutant("pairs-without-the-loss-term", TRANSLATIONS,
           "(key // W2 - A * losses) // B if B", "key // W2 // B if B"),
    Mutant("beta-zero-pairs-not-recounted", TRANSLATIONS,
           "else _broken_pairs(nbr, verts, images, lost)", "else 0"),
    Mutant("bound-prunes-ties", TRANSLATIONS,
           "if bound > best[0]:", "if bound >= best[0]:"),
    Mutant("settle-orders-lost-first", PROPAGATION,
           "slots = tuple(g.n if s is None else s", "slots = tuple(-1 if s is None else s"),
    Mutant("oracle-orders-lost-first", TRANSLATIONS,
           "tuple(g.n if w is None else w for w in pair[0].images)",
           "tuple(-1 if w is None else w for w in pair[0].images)"),
    Mutant("beta-zero-pairs-kept", PROPAGATION,
           "acc.snp_violations + pairs if B else 0", "acc.snp_violations + pairs"),
    Mutant("templates-accept-one-slot", "src/gcforge/net.py",
           "    if k < 2:  # a centered", "    if False:  # a centered",
           ("tests/test_net.py", "tests/test_cli.py")),
    Mutant("dataset-accepts-non-finite", "src/gcforge/net.py",
           "if not all(map(math.isfinite, rows[-1])):", "if False:",
           ("tests/test_net.py", "tests/test_cli.py")),
    Mutant("coordinates-accept-non-finite", "src/gcforge/graph.py",
           "if not all(map(math.isfinite, row)):", "if False:",
           ("tests/test_graph.py", "tests/test_cli.py")),
    Mutant("header-without-a-letter", "src/gcforge/graph.py",
           "all(\n        any(map(str.isalpha, f)) for f in fields)", "True",
           ("tests/test_graph.py", "tests/test_cli.py")),
    # option cutoff in the parent
    Mutant("cutoff-prunes-ties", TRANSLATIONS,
           "if child > best[0]:", "if child >= best[0]:"),
    Mutant("base-shift-keeps-slot-share", TRANSLATIONS,
           "base = bound - options[0][0]",
           "base = bound - options[0][0] + options[0][0] % W2 // W * W"),
    Mutant("base-losses-keeps-slot-share", TRANSLATIONS,
           "base = bound - options[0][0]", "base = bound - options[0][0] + options[0][0] % W"),
    Mutant("shift-estimate-plus-one", TRANSLATIONS,
           "child = base + opt", "child = base + opt + W"),
    # one scan per open slot
    Mutant("shift-flag-from-center", TRANSLATIONS,
           "shift_bit = [0 if s == lost else 1 << s for s in shift]",
           "shift_bit = [1 << target for s in shift]"),
    Mutant("shift-option-keyed-as-moved", TRANSLATIONS,
           "options.append((c, sb.bit_length() - 1))", "options.append((c + W, sb.bit_length() - 1))"),
    # ASCII-only numbers in every reader
    Mutant("integers-accept-any-int", "src/gcforge/graph.py",
           "    if not _INTEGER.fullmatch(field):\n", "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("floats-accept-underscores", "src/gcforge/graph.py",
           'if "_" in field or not field.isascii():', "if not field.isascii():",
           ("tests/test_cli.py",)),
    Mutant("dataset-accepts-underscores", "src/gcforge/net.py",
           'if "_" in line or not line.isascii():', "if not line.isascii():",
           ("tests/test_net.py", "tests/test_cli.py")),
    # size fields checked against the rows before anything is allocated
    Mutant("scheme-count-unchecked", "src/gcforge/layer.py",
           "if n > len(rows):", "if False:", ("tests/test_cli.py",)),
    Mutant("scheme-width-unchecked", "src/gcforge/layer.py",
           "if k > n:  # checked before", "if False:  # checked before", ("tests/test_cli.py",)),
    Mutant("placement-width-unchecked", PROPAGATION,
           "if k > n:", "if False:", ("tests/test_cli.py",)),
    Mutant("scheme-build-width-unchecked", "src/gcforge/layer.py",
           "if pm.k > pm.n:", "if False:", ("tests/test_layer.py",)),
    Mutant("placement-count-unchecked", "src/gcforge/layer.py",
           "if missing < pm.n:", "if False:", ("tests/test_cli.py",)),
    Mutant("class-count-unchecked", "src/gcforge/cli.py",
           "if unseen < classes:", "if False:", ("tests/test_cli.py",)),
    Mutant("edge-count-unchecked", "src/gcforge/graph.py",
           "if connected and n > len(edges) + 1:", "if False:", ("tests/test_cli.py",)),
    Mutant("label-width-unchecked", "src/gcforge/net.py",
           "if labels[-1] > _LABEL_MAX:", "if False:", ("tests/test_net.py", "tests/test_cli.py")),
    # a stage that exits 2 removes the outputs it wrote before the failure,
    # and one whose outputs name the same file, or one of its inputs, writes
    # none
    Mutant("failed-stage-keeps-outputs", "src/gcforge/cli.py",
           "Path(done).unlink(missing_ok=True)", "pass", ("tests/test_cli.py",)),
    Mutant("two-outputs-one-file", "src/gcforge/cli.py",
           "if real in seen:", "if False:", ("tests/test_cli.py",)),
    Mutant("output-names-an-input", "src/gcforge/cli.py",
           "if real in read:", "if False:", ("tests/test_cli.py",)),
    # cheaper search nodes: each shortcut skips work and changes no decision.
    # The scan and the clique sum stop at their first loss, so
    # bound-prunes-ties and clique-bump-prunes-ties mutate those exits.
    Mutant("budget-limit-ceil", TRANSLATIONS,
           "limit = p * scale // q", "limit = -(-p * scale // q)"),
    Mutant("branch-counts-used-candidates", TRANSLATIONS,
           "key=lambda s: (nbr[verts[s]] & ~used_mask).bit_count()",
           "key=lambda s: nbr[verts[s]].bit_count()"),
    # deferred steps in the settle queue: the same non-stale pops in the same order
    Mutant("placements-before-deferred-steps", PROPAGATION,
           "heapq.heappush(heap, (cost, losses, 1, slots, v))",
           "heapq.heappush(heap, (cost, losses, -1, slots, v))"),
    Mutant("deferred-drops-stale-source", PROPAGATION,
           "steps = [(level - cost, t)]",
           "steps = [(level - cost, t)] if best[source.center] is source else []"),
    Mutant("next-cost-skips-a-level", PROPAGATION,
           "A * x + B * ((cost - A * x) // B + 1)", "A * x + B * ((cost - A * x) // B + 2)"),
    # the cost floor, the tied-node image bound and loss dominance. A prune
    # of a node whose least images equal the incumbent's is exact (such a
    # leaf is the incumbent), so the image tests are mutated by their images.
    Mutant("floor-one-unit-too-high", TRANSLATIONS,
           "floor_cost = -(-p * scale // q)", "floor_cost = -(-p * scale // q) + 1"),
    Mutant("floor-charges-open-slots-as-lost", TRANSLATIONS,
           "pinned = floor_key + key % W2 + W * sum(",
           "pinned = floor_key + key % W2 + (W + 1) * sum("),
    Mutant("floor-charges-shift-slots", TRANSLATIONS,
           "1 for j in unassigned if not shift_bit[j] & free)",
           "1 for j in unassigned)"),
    Mutant("floor-tie-greatest-image", TRANSLATIONS,
           "lambda j: shift_bit[j] & free or nbr[verts[j]] & free",
           "lambda j: 1 << (shift_bit[j] & free or nbr[verts[j]] & free).bit_length() >> 1"),
    Mutant("tie-bound-greatest-image", TRANSLATIONS,
           "lambda j: mins.get(j, 0)", "lambda j: 1 << mins.get(j, 0).bit_length() >> 1"),
    Mutant("least-images-take-the-greatest", TRANSLATIONS,
           "least[j] = (mask & -mask).bit_length() - 1 if mask else lost",
           "least[j] = mask.bit_length() - 1 if mask else lost"),
    Mutant("dominance-one-pair-early", TRANSLATIONS,
           "levels_kept = min(A // B, m - 1) + 1 if B else 1",
           "levels_kept = min(A // B - 1, m - 1) + 1 if B else 1"),
    # the rigid shift as the first incumbent, and its answer without a node.
    # The tied-node image test at > instead of >= is exact too; only the
    # node totals it adds show it. The shift's pairs are one mask count per
    # kept slot; counting lost slots in that mask only over-prices a seed
    # that the search then finds at its true key, so no output shows it.
    Mutant("shift-pairs-counted-as-zero", TRANSLATIONS,
           "pairs //= 2", "pairs = 0"),
    Mutant("shift-pairs-counted-twice", TRANSLATIONS,
           "pairs //= 2", "pass"),
    Mutant("shift-neighbors-moved-the-wrong-way", TRANSLATIONS,
           "back = nbr[w] >> delta if delta >= 0 else nbr[w] << -delta",
           "back = nbr[w] << delta if delta >= 0 else nbr[w] >> -delta"),
    Mutant("shift-answered-whenever-seeded", TRANSLATIONS,
           "if best[0] == floor_key:", "if best[1]:"),
    Mutant("shift-seeded-over-budget", TRANSLATIONS,
           "if shift_key <= best[0]:", "if True:"),
    Mutant("shift-image-not-a-neighbor", TRANSLATIONS,
           "v + delta >= 0 and nbr[v] >> v + delta & 1", "0 <= v + delta < lost"),
    Mutant("tie-bound-keeps-equal-images", TRANSLATIONS,
           "mins.get(j, 0)) >= best[1]:", "mins.get(j, 0)) > best[1]:"),
    # the restricted pass of a step that can only tie its target's placement
    Mutant("restricted-prefix-at-reference-kept", TRANSLATIONS,
           "if tuple(images) >= ref:", "if tuple(images) > ref:"),
    Mutant("reference-not-cut-at-lost-slot", TRANSLATIONS,
           "elif b is not None:\n                break", "elif b is not None:\n                pass"),
    Mutant("tie-rule-without-cost-gap", PROPAGATION,
           "if bar[0] - cost == floor and bar[1] == losses:", "if bar[1] == losses:"),
    Mutant("restricted-pass-keeps-loss", TRANSLATIONS,
           "if ref is None:  # the restricted pass skips", "if True:  # the restricted pass skips"),
)


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return None


def stale(mutants: list[Mutant]) -> list[str]:
    """One line for each mutant whose text to mutate does not occur exactly
    once in its file, so that a stale text stops the run before it starts."""
    out = []
    for mutant in mutants:
        found = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if found != 1:
            out.append(f"{mutant.name}: the text to mutate occurs {found} times "
                       f"in {mutant.path}, not once")
    return out


def run(mutant: Mutant, work: Path) -> str:
    """Apply ``mutant`` inside ``work``, run its tests, restore the file and
    return the first failure line, or ``SURVIVED``."""
    target = work / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            preexec_fn=_cap_address_space,
        )
    except subprocess.TimeoutExpired:
        return f"killed by timeout ({TIMEOUT_S} s)"
    finally:
        target.write_text(original, encoding="utf-8")
    if proc.returncode == 0:
        return "SURVIVED"
    return _first_failure(proc.stdout) or f"pytest exit {proc.returncode}:\n{proc.stdout[-2000:]}"


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in names] if names else list(MUTANTS)
    problems = stale(chosen)
    if problems:
        raise SystemExit("\n".join(problems))
    survivors = []
    with tempfile.TemporaryDirectory(prefix="gcforge-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        for mutant in chosen:
            verdict = run(mutant, work)
            print(f"{mutant.name}: {verdict}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
