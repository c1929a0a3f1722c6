#!/usr/bin/env python3
"""Project-convention lint for the WSN simulator.

Rules (beyond what clang-tidy covers):

  R1  rng-source      No rand()/srand()/std::mt19937/<random> engines outside
                      src/sim/random.* — every random draw must come from the
                      seeded, platform-stable wsn::sim::Rng.
  R2  wall-clock      No wall-clock reads in simulation code (src/): time(),
                      std::chrono::*_clock, gettimeofday, clock_gettime,
                      localtime, gmtime. Simulated time comes from
                      Simulator::now(); wall-clock reads break determinism.
  R3  unordered-iter  No range-for over std::unordered_{map,set} variables in
                      src/ unless the loop is annotated with
                      `lint:unordered-ok` on the loop line or the line above.
                      Hash iteration order feeding protocol decisions is the
                      classic source of cross-platform nondeterminism.
  R4  header-shape    Every .hpp starts with a `//` purpose comment on line 1
                      and its first non-comment, non-blank line is
                      `#pragma once`.
  R5  hot-path-heap   No bare std::make_shared of protocol messages in
                      src/ — messages recycle through the simulator's pool
                      (sim.arena().make<T>()); a bare make_shared silently
                      reintroduces per-send heap traffic. Setup-time or
                      test-rig sites may annotate with `lint:pool-ok` on the
                      line or the line above. MAC transmissions are owned by
                      the Channel, which reuses their slots, so any
                      shared_ptr<Transmission> or TransmissionPtr in src/ is
                      a finding too: a transmission keeps one owner.
  R6  trace-emit      Trace emission in src/ (outside src/trace/) must go
                      through WSN_TRACE_EMIT — no direct Tracer::emit calls
                      or tracer() reads. The macro carries the traced-off
                      guard; a bare emit runs its operands even when tracing
                      is disabled. Deliberate sites (the accessor itself,
                      batch guards around per-item loops) annotate with
                      `lint:trace-ok` on the line or the line above.
  R7  one-callable    No std::function outside tests/. Event and timer
                      callbacks are sim::InlineFn and the replicate engine
                      takes its task as a template parameter; a
                      std::function reintroduces a second kind of callable
                      and its heap fallback.
  R8  no-rtti         No dynamic_cast in src/. A payload's type is known
                      from who built it (the diffusion layer's send() takes
                      only diffusion messages), so the hot path uses
                      static_cast; a dynamic_cast costs a string compare
                      per call. An audit-only check of such a cast may
                      annotate its line with `lint:rtti-ok`.
  R9  one-stack       No call to make_diffusion_node( in src/, tests/,
                      bench/, examples/ or tools/ outside the factory itself
                      (src/core/algorithm.*). The protocol stack is built in
                      one place, scenario::Network, which places its nodes
                      in one block per run without the factory;
                      run_experiment, the protocol test rig and the
                      examples reach MACs and nodes through it.
  R10 one-cancellable No EventHandle in src/. The event queue has no
                      cancellation handle: whatever protocol code may cancel
                      is a sim::Timer, whose queue node is unlinked in
                      place; a held one-shot handle would bring back a
                      second way to cancel.
  R11 one-observer    No call to on_event_generated( or on_event_delivered(
                      in src/, bench/ or examples/ outside
                      src/diffusion/node.cpp and the collector itself
                      (src/stats/metrics.*). The protocol notes each item
                      to the run's MetricsCollector in the same function
                      that traces it, so every counted note has its trace
                      record.
  R12 one-simd-site   No <emmintrin.h>/<immintrin.h> include and no _mm_
                      identifier in src/, tests/, bench/, examples/ or
                      tools/ outside src/net/chunk_masks.hpp. The neighbour
                      scan's kernel is the one place that uses intrinsics,
                      next to the portable body it must match bit for bit
                      (tests compare the two); a second site would have no
                      such twin.

Exit status 0 when clean; 1 with one `path:line: [rule] message` per finding.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
CPP_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

ALLOW_MARK = "lint:unordered-ok"
POOL_MARK = "lint:pool-ok"
TRACE_MARK = "lint:trace-ok"
RTTI_MARK = "lint:rtti-ok"

RNG_PATTERN = re.compile(
    r"\b(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|ranlux\d+(?:_base)?|"
    r"default_random_engine|random_device)\b|\bs?rand\s*\(")
WALL_CLOCK_PATTERN = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\b|"
    r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|\blocaltime\s*\(|"
    r"\bgmtime\s*\(|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
UNORDERED_DECL_PATTERN = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_PATTERN = re.compile(r"\bfor\s*\(([^;]*?):([^)]*)\)")
POOL_BYPASS_PATTERN = re.compile(
    r"\bstd::make_shared\s*<\s*[\w:]*?(?:Msg|Transmission)\s*>")
SHARED_TX_PATTERN = re.compile(
    r"\bshared_ptr\s*<\s*(?:const\s+)?[\w:]*\bTransmission\s*>|"
    r"\bTransmissionPtr\b")
TRACE_SINK_PATTERN = re.compile(
    r"\btracer\s*\(\s*\)|(?:->|\.)\s*emit\s*\(")
STD_FUNCTION_PATTERN = re.compile(r"\bstd::function\b")
DYNAMIC_CAST_PATTERN = re.compile(r"\bdynamic_cast\b")
NODE_FACTORY_PATTERN = re.compile(r"\bmake_diffusion_node\s*\(")
EVENT_HANDLE_PATTERN = re.compile(r"\bEventHandle\b")
ITEM_NOTE_PATTERN = re.compile(r"\bon_event_(?:generated|delivered)\s*\(")
ONE_OBSERVER_FILES = {"src/diffusion/node.cpp", "src/stats/metrics.hpp",
                      "src/stats/metrics.cpp"}
SIMD_PATTERN = re.compile(r"<(?:emm|imm)intrin\.h>|\b_mm_\w*")
SIMD_FILE = "src/net/chunk_masks.hpp"
ONE_STACK_FILES = {"src/core/algorithm.hpp", "src/core/algorithm.cpp"}


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents (keeps quotes)."""
    out: list[str] = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def declared_unordered_names(code_lines: list[str]) -> set[str]:
    """Names of variables/members declared as std::unordered_* containers."""
    names: set[str] = set()
    # Declarations can span lines (long template args); scan a joined window.
    joined = " ".join(code_lines)
    for m in UNORDERED_DECL_PATTERN.finditer(joined):
        # Walk past the balanced template argument list, then read the name.
        i = m.end()
        depth = 1
        while i < len(joined) and depth > 0:
            if joined[i] == "<":
                depth += 1
            elif joined[i] == ">":
                depth -= 1
            i += 1
        rest = joined[i:]
        name = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|,|\))", rest)
        if name:
            names.add(name.group(1))
    return names


class Linter:
    def __init__(self) -> None:
        self.findings: list[str] = []

    def report(self, path: Path, line_no: int, rule: str, msg: str) -> None:
        rel = path.relative_to(REPO)
        self.findings.append(f"{rel}:{line_no}: [{rule}] {msg}")

    def lint_file(self, path: Path, unordered_names: set[str]) -> None:
        rel = path.relative_to(REPO).as_posix()
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        code = [strip_comments_and_strings(l) for l in lines]

        in_sim = rel.startswith("src/")
        notes_checked = (rel.split("/", 1)[0] in {"src", "bench", "examples"}
                         and rel not in ONE_OBSERVER_FILES)
        rng_exempt = rel.startswith("src/sim/random.")
        trace_exempt = rel.startswith("src/trace/")

        for idx, (raw, clean) in enumerate(zip(lines, code), start=1):
            if not rng_exempt and RNG_PATTERN.search(clean):
                self.report(path, idx, "rng-source",
                            "use wsn::sim::Rng (src/sim/random) instead of "
                            "ad-hoc std RNGs / rand()")
            if in_sim and POOL_BYPASS_PATTERN.search(clean):
                here = raw
                above = lines[idx - 2] if idx >= 2 else ""
                if POOL_MARK not in here and POOL_MARK not in above:
                    self.report(path, idx, "hot-path-heap",
                                "bare std::make_shared of a pooled type; use "
                                f"sim.arena().make<T>() or annotate with "
                                f"{POOL_MARK} for setup-time sites")
            if in_sim and SHARED_TX_PATTERN.search(clean):
                self.report(path, idx, "hot-path-heap",
                            "shared transmission pointer; the Channel owns "
                            "every Transmission (hold a plain pointer)")
            if in_sim and not trace_exempt and TRACE_SINK_PATTERN.search(clean):
                here = raw
                above = lines[idx - 2] if idx >= 2 else ""
                if TRACE_MARK not in here and TRACE_MARK not in above:
                    self.report(path, idx, "trace-emit",
                                "direct tracer sink access; use WSN_TRACE_EMIT "
                                "(it carries the traced-off guard) or annotate "
                                f"with {TRACE_MARK}")
            if (not rel.startswith("tests/")
                    and STD_FUNCTION_PATTERN.search(clean)):
                self.report(path, idx, "one-callable",
                            "std::function outside tests/; use sim::InlineFn, "
                            "a template parameter or a callable struct")
            if (in_sim and DYNAMIC_CAST_PATTERN.search(clean)
                    and RTTI_MARK not in raw):
                self.report(path, idx, "no-rtti",
                            "dynamic_cast in src/; use static_cast on a "
                            "payload whose type the sender fixes, or mark an "
                            f"audit-only check with {RTTI_MARK}")
            if (rel not in ONE_STACK_FILES
                    and NODE_FACTORY_PATTERN.search(clean)):
                self.report(path, idx, "one-stack",
                            "make_diffusion_node outside its definition; "
                            "build the stack with scenario::Network")
            if in_sim and EVENT_HANDLE_PATTERN.search(clean):
                self.report(path, idx, "one-cancellable",
                            "EventHandle in sim code; make what you "
                            "cancel a sim::Timer")
            if notes_checked and ITEM_NOTE_PATTERN.search(clean):
                self.report(path, idx, "one-observer",
                            "item note outside DiffusionNode::note_*; the "
                            "protocol notes items to the collector next to "
                            "their trace records")
            if rel != SIMD_FILE and SIMD_PATTERN.search(clean):
                self.report(path, idx, "one-simd-site",
                            "SIMD intrinsics outside src/net/chunk_masks.hpp; "
                            "keep vector code in the one kernel with its "
                            "portable twin")
            if in_sim and WALL_CLOCK_PATTERN.search(clean):
                self.report(path, idx, "wall-clock",
                            "wall-clock read in sim code; use "
                            "Simulator::now() for simulated time")
            if in_sim:
                for m in RANGE_FOR_PATTERN.finditer(clean):
                    target = m.group(2).strip()
                    base = re.sub(r"[()*&\s]", "", target)
                    base = base.split(".")[-1].split("->")[-1]
                    if base in unordered_names:
                        here = raw
                        above = lines[idx - 2] if idx >= 2 else ""
                        if ALLOW_MARK not in here and ALLOW_MARK not in above:
                            self.report(
                                path, idx, "unordered-iter",
                                f"range-for over unordered container "
                                f"'{base}'; sort/drain first or annotate "
                                f"with {ALLOW_MARK} if order-insensitive")

        if path.suffix in {".hpp", ".h"}:
            if not lines or not lines[0].lstrip().startswith("//"):
                self.report(path, 1, "header-shape",
                            "header must open with a `//` purpose comment")
            first_code = next(
                (l.strip() for l in lines
                 if l.strip() and not l.lstrip().startswith("//")), "")
            if first_code != "#pragma once":
                self.report(path, 1, "header-shape",
                            "#pragma once must be the first non-comment line")

    def run(self) -> int:
        files: list[Path] = []
        for d in SOURCE_DIRS:
            root = REPO / d
            if root.is_dir():
                files.extend(p for p in sorted(root.rglob("*"))
                             if p.suffix in CPP_SUFFIXES)

        # R3 needs declarations visible across a header/impl pair: a member
        # declared in foo.hpp is iterated in foo.cpp.
        decls: dict[Path, set[str]] = {}
        for p in files:
            decls[p] = declared_unordered_names(
                [strip_comments_and_strings(l)
                 for l in p.read_text(encoding="utf-8").splitlines()])

        for p in files:
            names = set(decls[p])
            for sib_suffix in (".hpp", ".h", ".cpp", ".cc"):
                sib = p.with_suffix(sib_suffix)
                if sib != p and sib in decls:
                    names |= decls[sib]
            self.lint_file(p, names)

        for f in self.findings:
            print(f)
        if self.findings:
            print(f"lint: {len(self.findings)} finding(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"lint: OK ({len(files)} files)")
        return 0


if __name__ == "__main__":
    sys.exit(Linter().run())
