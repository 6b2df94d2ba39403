#!/usr/bin/env python3
"""Symbolises a sigprof profile (see sigprof.cpp) with addr2line.

    python3 tools/sigprof/symbolize.py sigprof.<pid>.txt [--top N] [--callers M]

Prints three tables, each as a share of all samples:
  self       the function executing when the sample was taken (leaf frame);
  inclusive  functions anywhere on the stack (counted once per sample);
  callers    for the M hottest self functions, the source lines that called
             them (the frame just above the leaf).
Needs addr2line (binutils) and binaries built with debug info, such as the
default RelWithDebInfo build. Frames in shared libraries are prefixed with
the library name. A stripped library only resolves to its nearest exported
symbol: libc's memcpy/memmove/memcmp variants, for instance, show up under
unrelated neighbouring names such as `libc.so.6!__nss_database_lookup`.
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
        cmd = ["addr2line", "-f", "-C", "-e", path] + [hex(a) for a in addrs]
        out = subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()
        for i, a in enumerate(addrs):
            fn = out[2 * i] if 2 * i < len(out) else "??"
            line = out[2 * i + 1] if 2 * i + 1 < len(out) else "??:0"
            lib = os.path.basename(path)
            if fn == "??":
                fn = f"{lib}+{a:#x}"
            elif ".so" in lib:
                fn = f"{lib}!{fn}"
            names[(path, a)] = (fn, line.split(" (discriminator")[0])
    return [[names.get(loc, ("??", "??:0")) if loc else ("??", "??:0") for loc in row]
            for row in keyed]


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

    self_count = collections.Counter(s[0][0] for s in stacks if s)
    incl_count = collections.Counter()
    callers = collections.defaultdict(collections.Counter)
    for s in stacks:
        incl_count.update({fn for fn, _ in s})
        if len(s) > 1:
            callers[s[0][0]][s[1][1]] += 1

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
