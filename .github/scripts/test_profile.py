#!/usr/bin/env python3
"""Self-tests of the sampling profiler (sigprof.py and sigprof.c).

    cargo build --release
    python3 .github/scripts/test_profile.py

The end-to-end test profiles the release `eacp` on the paper-anchor spec at
800,000 replications (about 1.5 s of CPU time) and checks that the samples
resolve to the engine: at least 100 of them, with
`Executor::run_with_scratch` among the three largest inclusive frames.
"""

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import sigprof  # noqa: E402

EACP = ROOT / "target" / "release" / "eacp"
ENGINE = "eacp_sim::engine::Executor::run_with_scratch"


class ParseTests(unittest.TestCase):
    def test_inlined_frames_come_innermost_first_per_address(self):
        text = (
            "0x0000000000001000\n"
            "eacp_energy::LevelRun::record\n"
            "crates/energy-model/src/lib.rs:269\n"
            "eacp_sim::engine::Executor::run_with_scratch\n"
            "crates/dmr-sim/src/engine.rs:500 (discriminator 2)\n"
            "0x0000000000001010\n"
            "??\n"
            "??:0\n"
        )
        chains = sigprof.parse_addr2line(text)
        self.assertEqual(
            chains[0x1000],
            [
                ("eacp_energy::LevelRun::record", "crates/energy-model/src/lib.rs:269"),
                (ENGINE, "crates/dmr-sim/src/engine.rs:500"),
            ],
        )
        self.assertEqual(chains[0x1010], [("??", "??:0")])

    def test_samples_file_is_read_back(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "1.txt"
            path.write_text(
                "maps\n"
                "55d0a000-55d0b000 r-xp 00002000 fe:01 42 /usr/bin/prog\n"
                "7ffd1000-7ffd3000 r-xp 00000000 00:00 0 [vdso]\n"
                "samples 3\n"
                "55d0a010\n55d0a020\n7ffd1004\n"
            )
            maps, taken, addresses = sigprof.read_samples(path)
        self.assertEqual(taken, 3)
        self.assertEqual(addresses, [0x55D0A010, 0x55D0A020, 0x7FFD1004])
        self.assertEqual(maps[0], (0x55D0A000, 0x55D0B000, 0x2000, "/usr/bin/prog"))
        self.assertEqual(maps[1][3], "[vdso]")
        # A sample outside every mapping, or in one with no file, keeps a label.
        chains = sigprof.resolve(maps, [0x1, 0x7FFD1004])
        self.assertEqual(chains, [[("[unmapped]", "??")], [("[vdso]", "??")]])


class EndToEndTests(unittest.TestCase):
    def test_the_engine_leads_a_monte_carlo_profile(self):
        if not EACP.exists():
            self.fail(f"{EACP} is missing: run `cargo build --release` first")
        result = sigprof.profile(
            [
                str(EACP),
                "mc",
                "--spec",
                str(ROOT / "specs" / "table1-anchor.json"),
                "--reps",
                "800000",
                "--threads",
                "1",
            ]
        )
        self.assertEqual(result.returncode, 0)
        self.assertGreaterEqual(len(result.chains), 100, "too few samples")
        top = [function for function, _ in result.inclusive.most_common(3)]
        self.assertIn(ENGINE, top, f"top inclusive frames: {top}")


if __name__ == "__main__":
    unittest.main()
