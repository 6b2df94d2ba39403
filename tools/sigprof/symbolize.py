#!/usr/bin/env python3
"""Symbolises a sigprof profile (see sigprof.cpp) with addr2line.

    python3 tools/sigprof/symbolize.py sigprof.<pid>.txt [--top N] [--callers M]

Prints five tables, each as a share of all samples:
  self       the function executing when the sample was taken (leaf frame);
  inclusive  functions anywhere on the stack (counted once per sample);
  callers    for the M hottest self functions, the source lines that called
             them (the frame just above the leaf);
  lib leaves samples whose leaf is in a shared library, billed to the first
             frame whose function is defined under src/;
  host mem   the same samples named by the libc operation they perform
             (memcpy, memmove, memcmp, memset, malloc, free), each with the
             src/ functions it is billed to.
Needs addr2line (binutils) and binaries built with debug info, such as the
default RelWithDebInfo build. Each frame is named by its physical function,
the outermost entry of `addr2line -i`: code inlined into a function is
billed to that function, not to the inlined callee (nor, as the innermost
name alone would suggest, to whoever called the function). Source lines
stay the innermost ones, the most precise location. Frames in shared
libraries are prefixed with the library name. A stripped library only
resolves to its nearest exported symbol: libc's memcpy/memmove/memcmp and
malloc variants, for instance, show up under unrelated neighbouring names
such as `libc.so.6!__nss_database_lookup` or `__default_morecore`; the
lib-leaves table says which of our functions those samples belong to, and
the host-memory table names the operation from the first frame outside libc
that called it: the innermost inlined std-header function on that line
(`char_traits::copy` is memcpy, `char_traits::compare` memcmp,
`stl_algobase.h` fill memset, `new_allocator.h` allocate malloc, ...),
`operator new`/`operator delete`, or a src/ line that calls memcpy & co.
directly. A sample whose caller says nothing (a tail call: `operator delete`
jumps to free, a small wrapper to memcpy) takes the operation most often
named for the same leaf address.
"""

import argparse
import collections
import functools
import os
import subprocess
import sys


def parse(path):
    samples, maps = [], []
    in_maps = False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# maps"):
                in_maps = True
            elif line.startswith("#"):
                continue
            elif in_maps:
                parts = line.split(None, 5)
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif line:
                samples.append([int(x, 16) for x in line.split()])
    return samples, maps


@functools.lru_cache(maxsize=None)
def is_pie_or_shared(path):
    """ELF e_type: ET_DYN (3) addresses are relative to the load base.
    None when the file cannot be read."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return None
    return len(head) == 18 and head[16] == 3


def locate(addr, maps, bases):
    """Returns (file, address to hand to addr2line) or None."""
    for lo, hi, _, path in maps:
        if lo <= addr < hi:
            kind = is_pie_or_shared(path)
            if kind is None:
                return None
            return path, (addr - bases[path]) if kind else addr
    return None


# One symbolised stack frame: the physical function's name, the innermost
# source line and inlined function (`inl`), the physical function's own line
# (`home`), the file it lies in, and whether that is a shared library.
Frame = collections.namedtuple("Frame", "fn line inl home path in_lib")


def symbolise(samples, maps):
    # The load base of a file is the start of its mapping at file offset 0.
    bases = {}
    for lo, _, off, path in maps:
        if off == 0 and path not in bases:
            bases[path] = lo
    # Return addresses point after the call; step back into it.
    wanted = collections.defaultdict(set)
    keyed = []
    for stack in samples:
        row = []
        for depth, addr in enumerate(stack):
            loc = locate(addr if depth == 0 else addr - 1, maps, bases)
            row.append(loc)
            if loc is not None:
                wanted[loc[0]].add(loc[1])
        keyed.append(row)

    names = {}
    for path, addrs in wanted.items():
        addrs = sorted(addrs)
        lib = os.path.basename(path)
        for a, chain in zip(addrs, addr2line_chains(path, addrs)):
            # chain: (function, line) pairs, innermost inline first; the
            # last entry is the physical function the address lies in.
            fn, home = chain[-1]
            if fn == "??":
                fn = f"{lib}+{a:#x}"
            elif ".so" in lib:
                fn = f"{lib}!{fn}"
            names[(path, a)] = Frame(fn, chain[0][1], chain[0][0], home, path, ".so" in lib)
    unknown = Frame("??", "??:0", "??", "??:0", "", False)
    return [[names.get(loc, unknown) if loc else unknown for loc in row] for row in keyed]


def addr2line_chains(path, addrs):
    """Runs `addr2line -a -i -f -C` and returns, per address, its inline chain
    as (function, source line) pairs, innermost first."""
    cmd = ["addr2line", "-a", "-i", "-f", "-C", "-e", path] + [hex(a) for a in addrs]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()
    chains, i = [], 0
    for _ in addrs:
        # Each address starts with its own "0x..." line (from -a), followed by
        # function/line pairs until the next address line.
        if i < len(out) and out[i].startswith("0x"):
            i += 1
        chain = []
        while i + 1 < len(out) and not out[i].startswith("0x"):
            chain.append((out[i], out[i + 1].split(" (discriminator")[0]))
            i += 2
        chains.append(chain or [("??", "??:0")])
    return chains


def in_src(line):
    """Whether a source location lies under a src/ directory."""
    return "/src/" in line.split(":")[0]


# Innermost inlined std functions whose libc call is a known memory
# operation, by (header, function-name fragment).
STD_OPS = [
    ("char_traits.h", "::copy(", "memcpy"),
    ("char_traits.h", "::move(", "memmove"),
    ("char_traits.h", "::compare(", "memcmp"),
    ("char_traits.h", "::assign(", "memset"),
    ("stl_algobase.h", "fill", "memset"),
    ("stl_algobase.h", "copy", "memmove"),
    ("stl_algobase.h", "equal", "memcmp"),
    ("new_allocator.h", "deallocate(", "free"),  # before its substring
    ("new_allocator.h", "allocate(", "malloc"),
]
# Direct calls on a src/ line, in the order they are looked for.
SRC_OPS = ["memcpy", "memmove", "memcmp", "memset", "memchr"]


@functools.lru_cache(maxsize=None)
def source_line(loc):
    """The text of `file:line`, or "" when unreadable."""
    path, _, num = loc.rpartition(":")
    try:
        with open(path) as f:
            for i, text in enumerate(f, 1):
                if i == int(num):
                    return text
    except (OSError, ValueError):
        pass
    return ""


def libc_operation(stack):
    """Names the libc operation a shared-library leaf sample performs, from
    the first frame above it that is not in libc; None when unknown."""
    caller = next((f for f in stack[1:] if not os.path.basename(f.path).startswith("libc.")),
                  None)
    if caller is None:
        return None
    if caller.in_lib:  # libstdc++'s allocation entry points
        if "operator new" in caller.fn:
            return "malloc"
        if "operator delete" in caller.fn:
            return "free"
        return None
    header = os.path.basename(caller.line.split(":")[0])
    for want, fragment, op in STD_OPS:
        if header == want and fragment in caller.inl:
            return op
    if in_src(caller.line):
        text = source_line(caller.line)
        return next((op for op in SRC_OPS if op + "(" in text), None)
    return None


def short(fn, width=110):
    return fn if len(fn) <= width else fn[: width - 3] + "..."


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=30, help="rows per table")
    ap.add_argument("--callers", type=int, default=10,
                    help="self functions whose caller lines are listed")
    args = ap.parse_args()

    samples, maps = parse(args.profile)
    if not samples:
        print("no samples", file=sys.stderr)
        return 1
    stacks = symbolise(samples, maps)
    total = len(stacks)

    self_count = collections.Counter(s[0].fn for s in stacks if s)
    incl_count = collections.Counter()
    callers = collections.defaultdict(collections.Counter)
    lib_billed = collections.Counter()
    lib_leaves = collections.defaultdict(collections.Counter)
    libc_ops = []  # (leaf address, operation or None, owner) per libc leaf
    for raw, s in zip(samples, stacks):
        incl_count.update({f.fn for f in s})
        if len(s) > 1:
            callers[s[0].fn][s[1].line] += 1
        if s and s[0].in_lib:
            owner = next((f.fn for f in s[1:] if in_src(f.home)), "(no src/ frame)")
            lib_billed[owner] += 1
            lib_leaves[owner][s[0].fn] += 1
            if os.path.basename(s[0].path).startswith("libc."):
                libc_ops.append((raw[0], libc_operation(s), owner))
    by_addr = collections.defaultdict(collections.Counter)
    for addr, op, _ in libc_ops:
        if op is not None:
            by_addr[addr][op] += 1
    op_count = collections.Counter()
    op_owners = collections.defaultdict(collections.Counter)
    for addr, op, owner in libc_ops:
        if op is None:
            op = by_addr[addr].most_common(1)[0][0] if by_addr[addr] else "(other libc)"
        op_count[op] += 1
        op_owners[op][owner] += 1

    print(f"{total} samples")
    print("\n  self%  function")
    for fn, n in self_count.most_common(args.top):
        print(f"{100.0 * n / total:7.2f}  {short(fn)}")
    print("\n  incl%  function")
    for fn, n in incl_count.most_common(args.top):
        print(f"{100.0 * n / total:7.2f}  {short(fn)}")
    print("\ncaller lines of the hottest self functions (% of all samples)")
    for fn, _ in self_count.most_common(args.callers):
        print(f"  {short(fn)}")
        for line, n in callers[fn].most_common(5):
            print(f"  {100.0 * n / total:7.2f}    {line}")
    print("\n  lib%  shared-library leaves, billed to the first src/ frame")
    for fn, n in lib_billed.most_common(args.top):
        leaves = ", ".join(leaf for leaf, _ in lib_leaves[fn].most_common(3))
        print(f"{100.0 * n / total:7.2f}  {short(fn)}")
        print(f"           via {short(leaves, 100)}")
    print("\n  host%  libc leaves by operation, billed to the first src/ frame")
    for op, n in op_count.most_common():
        print(f"{100.0 * n / total:7.2f}  {op}")
        for owner, m in op_owners[op].most_common(5):
            print(f"  {100.0 * m / total:7.2f}    {short(owner, 100)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
