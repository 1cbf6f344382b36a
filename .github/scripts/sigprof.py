#!/usr/bin/env python3
"""Sample where a command spends its CPU time, by inlined frame and source line.

    python3 .github/scripts/sigprof.py -- COMMAND [ARG...]

Builds sigprof.c (next to this script) with `cc` into a temporary
directory, runs COMMAND once with it preloaded, and resolves every sampled
instruction address through `readelf -lW` (file offset to ELF address) and
`addr2line -a -f -i -C` (address to the chain of inlined frames, innermost
first). Only the process COMMAND starts is read: children inherit the
preload and write their own samples, which are ignored. So run the program
itself, not a shell around it. COMMAND's standard output is discarded;
its standard error passes through.

It prints three tables of `TOP` (25) rows, each row as a share of all
samples:

* inclusive: every function on a sample's inlined chain, once per sample,
  next to its self share (samples whose innermost frame it is). A sample
  carries no call stack, so a function called out of line counts only for
  itself, not for its callers.
* self: the innermost function.
* lines: the innermost file:line.

Samples come once per scheduler tick of CPU time at most (ITIMER_PROF is
checked at the tick), whatever sigprof.c asks for: on a host with a 250 Hz
tick, one per 4 ms, so a 10-second run gives about 2,500 samples. The
first line says how many samples arrived over how much CPU time. Release
builds of this workspace keep debug info (`[profile.release] debug`), so
source lines resolve. In a library without debug info a frame is the
nearest exported symbol before the address, tagged with the library's
name; it may be a neighbour of the function that ran. Standard library
only.
"""

import argparse
import bisect
import collections
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Rows per table.
TOP = 25


class ProfileError(Exception):
    """A profile that could not be taken or read."""


class Profile:
    """The samples of one run, resolved to inlined frames."""

    def __init__(self, chains, taken, cpu_s, returncode):
        # One list of (function, location) frames per sample, innermost first.
        self.chains = chains
        self.taken = taken
        self.cpu_s = cpu_s
        self.returncode = returncode
        self.inclusive = collections.Counter()
        self.self_ = collections.Counter()
        self.lines = collections.Counter()
        for chain in chains:
            self.self_[chain[0][0]] += 1
            self.lines[(chain[0][1], chain[0][0])] += 1
            self.inclusive.update({function for function, _ in chain})

    def report(self, out=sys.stdout):
        n = len(self.chains)
        every = 1e3 * self.cpu_s / n if n else float("nan")
        out.write(
            f"{n} samples over {self.cpu_s:.3f} s of CPU time: one per {every:.2f} ms"
            + (f" ({self.taken - n} dropped)" if self.taken > n else "")
            + "\n"
        )
        if not n:
            return

        def pct(count):
            return f"{100.0 * count / n:6.1f}%"

        out.write(f"\ninclusive (inlined frames), top {TOP}:\n  incl.    self  function\n")
        for function, count in self.inclusive.most_common(TOP):
            out.write(f"  {pct(count)} {pct(self.self_[function])}  {function}\n")
        out.write(f"\nself, top {TOP}:\n")
        for function, count in self.self_.most_common(TOP):
            out.write(f"  {pct(count)}  {function}\n")
        out.write(f"\nsource lines (innermost frame), top {TOP}:\n")
        for (location, function), count in self.lines.most_common(TOP):
            out.write(f"  {pct(count)}  {location}  {function}\n")


def build(workdir):
    """Compiles the preload object; returns its path."""
    so = Path(workdir) / "sigprof.so"
    subprocess.run(
        ["cc", "-O2", "-shared", "-fPIC", "-o", str(so), str(HERE / "sigprof.c")],
        check=True,
    )
    return so


def read_samples(path):
    """Reads a samples file: (executable mappings, samples taken, addresses)."""
    maps, addresses, taken = [], [], None
    with open(path) as f:
        if f.readline().strip() != "maps":
            raise ProfileError(f"{path}: not a sigprof samples file")
        for line in f:
            if line.startswith("samples "):
                taken = int(line.split()[1])
                break
            fields = line.split(None, 5)
            start, end = (int(x, 16) for x in fields[0].split("-"))
            name = fields[5].strip() if len(fields) > 5 else ""
            maps.append((start, end, int(fields[2], 16), name))
        addresses = [int(line, 16) for line in f if line.strip()]
    if taken is None:
        raise ProfileError(f"{path}: truncated samples file")
    maps.sort()
    return maps, taken, addresses


def load_segments(path):
    """(file offset, virtual address, file size) of each LOAD segment."""
    text = subprocess.run(
        ["readelf", "-lW", path], capture_output=True, text=True, check=True
    ).stdout
    segments = []
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["LOAD"]:
            segments.append((int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)))
    return segments


def inline_chains(path, addresses):
    """Maps each ELF address of `path` to its inlined frames, innermost first."""
    query = "".join(f"{a:#x}\n" for a in addresses)
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input=query,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return parse_addr2line(text)


def parse_addr2line(text):
    """Reads `addr2line -a -f -i` output: each address line, then a
    function line and a location line per inlined frame."""
    chains, current, lines = {}, None, text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = chains.setdefault(int(line, 16), [])
            i += 1
            continue
        if current is None:
            raise ProfileError(f"addr2line: frame before any address: {line!r}")
        location = lines[i + 1] if i + 1 < len(lines) else "??:0"
        location = re.sub(r" \(discriminator \d+\)$", "", location)
        current.append((line, shorten(location)))
        i += 2
    return chains


def shorten(location):
    """A source location relative to the working directory when inside it."""
    cwd = os.getcwd() + os.sep
    return location[len(cwd):] if location.startswith(cwd) else location


def resolve(maps, addresses):
    """Turns sampled addresses into inlined-frame chains, one per sample."""
    starts = [m[0] for m in maps]
    per_module = collections.defaultdict(set)
    placed = []
    for address in addresses:
        i = bisect.bisect_right(starts, address) - 1
        if i < 0 or address >= maps[i][1]:
            placed.append((None, address))
            continue
        start, _, offset, name = maps[i]
        placed.append((name, address - start + offset))
        if name.startswith("/"):
            per_module[name].add(address - start + offset)

    # File offset -> ELF address -> frames, per module.
    frames = {}
    for name, offsets in per_module.items():
        try:
            segments = load_segments(name)
        except (OSError, subprocess.CalledProcessError):
            continue
        by_elf = {}
        for off in offsets:
            for seg_off, seg_vaddr, seg_size in segments:
                if seg_off <= off < seg_off + seg_size:
                    by_elf[off] = off - seg_off + seg_vaddr
                    break
        chains = inline_chains(name, sorted(set(by_elf.values())))
        module = os.path.basename(name)
        for off, elf in by_elf.items():
            # Without debug info addr2line names the nearest exported
            # symbol before the address, which may be a neighbour of the
            # function that ran: name the library beside it.
            frames[(name, off)] = [
                (f"{function} [{module}]" if location.startswith("??") else function, location)
                for function, location in chains.get(elf, [])
            ]

    chains = []
    for name, off in placed:
        chain = frames.get((name, off)) if name else None
        if not chain or chain[0][0] == "??":
            if not name:
                label = "[unmapped]" if name is None else "[anonymous]"
            else:
                label = f"[{os.path.basename(name)}]" if name.startswith("/") else name
            chain = [(label, "??")]
        chains.append(chain)
    return chains


def profile(command):
    """Runs `command` under the sampler and returns its `Profile`."""
    with tempfile.TemporaryDirectory(prefix="sigprof-") as workdir:
        so = build(workdir)
        env = dict(os.environ, LD_PRELOAD=str(so), SIGPROF_DIR=workdir)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        # Popen execs COMMAND in the child it forks, so the child's pid is
        # the profiled process's pid and names its samples file.
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        returncode = proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        samples = Path(workdir) / f"{proc.pid}.txt"
        if not samples.exists():
            raise ProfileError(
                f"no samples from {command[0]} (exit {returncode}): "
                "killed by a signal, or not a dynamically linked program"
            )
        maps, taken, addresses = read_samples(samples)
        return Profile(resolve(maps, addresses), taken, cpu_s, returncode)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s -- COMMAND [ARG...]",
    )
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command to profile")
    try:
        result = profile(command)
    except (ProfileError, OSError, subprocess.CalledProcessError) as e:
        print(f"sigprof: {e}", file=sys.stderr)
        return 2
    result.report()
    if result.returncode != 0:
        print(f"sigprof: {command[0]} exited {result.returncode}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
