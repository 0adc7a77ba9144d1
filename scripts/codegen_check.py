#!/usr/bin/env python3
"""Checks that the release perfbench binary keeps its per-arc work inline.

    python3 scripts/codegen_check.py [--binary PATH]

Without `--binary` it builds perfbench in release mode
(`cargo build --release --offline --manifest-path perfbench/Cargo.toml`)
and checks `perfbench/target/release/perfbench`.  It disassembles the
binary with `objdump -d -C` and resolves every call target: a direct
`call` names its target; a call through the GOT (`call *…(%rip)`), and a
function pointer loaded from the GOT into a register for a later
`call *%reg`, are resolved from the slot's `R_X86_64_RELATIVE` addend in
`readelf -r`; a `jmp` to another function is a tail call.  x86-64 ELF
only.

The block loops are every instance of `Simulation::run_steps`,
`DynScheduler::schedule_block`, `Scheduler::next_block` and
`Erased<P>::interact_block_dyn`.  The check fails (exit 1) if any of them
calls, out of line, one of the functions that run once per arc:
`AnyGraph::is_arc`, `AnyGraph::sample`, a `Scheduler::next_interaction`,
`gen_range`/`sample_from`/`UniformInt::uniform`, or the ChaCha
`next_u32`/`next_u64`.  Calls once per block (`ChaCha8Rng::refill`, the
epoch scheduler's `advance`), the protocols' `interact`,
`OracleFold::catch_up` and the panics are allowed.  It prints every block
loop with its out-of-line callees either way.

It also fails if any function anywhere in the binary calls
`AnyGraph::sample` or the ChaCha `next_u32`/`next_u64` out of line
(resolved the same way), and prints each such caller.
"""

import argparse
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCK_LOOPS = re.compile(
    r"Simulation<P,G>::run_steps$"
    r"|DynScheduler>?::schedule_block$"
    r"|Scheduler(<G>>)?::next_block$"
    r"|::interact_block_dyn$"
)

PER_ARC = re.compile(
    r"<population::graph::AnyGraph as population::graph::InteractionGraph>::(is_arc|sample)$"
    r"|Scheduler<G>>::next_interaction$"
    r"|rand::Rng::gen_range$"
    r"|rand::SampleRange<T>>::sample_from$"
    r"|rand::UniformInt>::uniform(_inclusive)?$"
    r"|<rand_chacha::ChaCha8Rng as rand::RngCore>::next_u(32|64)$"
)

# Called out of line by no function at all.
MUST_INLINE = re.compile(
    r"<population::graph::AnyGraph as population::graph::InteractionGraph>::sample$"
    r"|<rand_chacha::ChaCha8Rng as rand::RngCore>::next_u(32|64)$"
)

FUNCTION = re.compile(r"^([0-9a-f]+) <(.*)>:$")
# `call   a0850 <…>` / `jmp    a0850 <…>`: a direct call or jump.
DIRECT = re.compile(r"\t(?:call|jmp)\s+([0-9a-f]+) <")
# `call   *0x75fad(%rip)   # 117438 <…>`, or `mov` of such a slot into a
# register for a later `call *%reg`: an indirect call through the GOT.
GOT_SLOT = re.compile(r"\t(?:call|jmp|mov)\s+\*?0x[0-9a-f]+\(%rip\),?[^#]*# ([0-9a-f]+) <")


def got_targets(binary):
    """GOT slot address -> the address its relocation stores there."""
    out = subprocess.run(["readelf", "-rW", str(binary)], capture_output=True, text=True,
                         check=True).stdout
    slots = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[2] == "R_X86_64_RELATIVE":
            slots[int(fields[0], 16)] = int(fields[3], 16)
    return slots


def callees(binary):
    """(address, name) of each function -> Counter of the functions it
    calls out of line.

    A target counts when it is the first address of a function other than
    the caller, so jumps inside a function and loads of GOT slots that
    hold data drop out.
    """
    slots = got_targets(binary)
    asm = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", str(binary)],
                         capture_output=True, text=True, check=True).stdout
    names, targets, current = {}, {}, None
    for line in asm.splitlines():
        m = FUNCTION.match(line)
        if m:
            current = (int(m.group(1), 16), m.group(2))
            names[current[0]] = current[1]
            targets.setdefault(current, [])
        elif current is not None:
            m = DIRECT.search(line)
            if m:
                targets[current].append(int(m.group(1), 16))
                continue
            m = GOT_SLOT.search(line)
            if m and int(m.group(1), 16) in slots:
                targets[current].append(slots[int(m.group(1), 16)])
    return {
        function: Counter(names[a] for a in addresses if a != function[0] and a in names)
        for function, addresses in targets.items()
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--binary", type=Path,
                        help="check this binary instead of building perfbench")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        subprocess.run(["cargo", "build", "--quiet", "--release", "--offline",
                        "--manifest-path", "perfbench/Cargo.toml"], cwd=ROOT, check=True)
        binary = ROOT / "perfbench" / "target" / "release" / "perfbench"
    calls = callees(binary)
    loops = {f: c for f, c in calls.items() if BLOCK_LOOPS.search(f[1])}
    if not loops:
        sys.exit(f"{binary}: no block-loop function found; is it a perfbench build?")
    failures = 0
    for (start, function), counts in sorted(loops.items(), key=lambda item: item[0][1]):
        print(f"{function} @ {start:x}")
        for callee, n in sorted(counts.items()):
            bad = PER_ARC.search(callee) is not None
            failures += bad
            print(f"  {'FAIL' if bad else 'ok  '} {n:3} × {callee}")
    print(f"{len(loops)} block-loop functions, {failures} out-of-line per-arc callees")
    stray = 0
    for (start, function), counts in sorted(calls.items(), key=lambda item: item[0][1]):
        for callee, n in sorted(counts.items()):
            if MUST_INLINE.search(callee):
                stray += 1
                print(f"FAIL {function} @ {start:x}: {n} × {callee}")
    print(f"{stray} out-of-line calls to AnyGraph::sample or a ChaCha word in the whole binary")
    return 1 if failures or stray else 0


if __name__ == "__main__":
    sys.exit(main())
