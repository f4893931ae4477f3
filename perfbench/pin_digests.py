"""Pin the SHA-256 of every anchor trace in digests.json (the determinism gate).

    python3 perfbench/pin_digests.py

Anchors do not depend on the workload seed, so one run covers every seed.
Re-pin only in a change that alters traces on purpose, and say so there;
a traced benchmark run counts anchors whose trace differs from the pin in
``sim.trace_digest_changes``.
"""

from __future__ import annotations

import json
import os

import run


def pin(workdir: str) -> dict:
    from corpus import WORKLOADS, build_corpus
    from harness import file_digest, run_command
    from probes import Probe

    pinned = {}
    for workload in WORKLOADS:
        corpus = build_corpus(workload, 0, workdir)
        corpus.write_files()
        with Probe(False) as probe:
            for i, op in enumerate(corpus.ops):
                cmd = op.commands[0]
                if not (op.anchor and cmd.trace_path):
                    continue
                probe.start_op(i)
                rc, _out, _times, error = run_command(probe, cmd.argv)
                if error is not None:
                    raise SystemExit(f"{op.label}: exit {rc}: {error}")
                pinned.setdefault(workload, {})[op.label] = file_digest(cmd.trace_path)
    return pinned


def main():
    run.load_program()
    with run.scratch_dir(f"pin-{os.getpid()}") as workdir:
        pinned = pin(workdir)
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
