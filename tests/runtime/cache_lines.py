"""Test helper: damage one result-cache entry in place."""

import json
from pathlib import Path

from repro.runtime.cache import SEGMENT_DIR
from repro.runtime.jobs import JobSpec


def rewrite_entry(cache_dir, spec, mutate):
    """Replace the one segment line holding ``spec``'s entry by
    ``mutate(line)`` (text without its newline); every other byte of the
    segment stays.  Returns the segment path and the line's offset.

    Lines after the rewritten one shift when its length changes, so read
    them through a fresh ``ResultCache``.
    """
    found = []
    for path in sorted((Path(cache_dir) / SEGMENT_DIR).glob("*.jsonl")):
        lines = path.read_bytes().split(b"\n")
        for number, line in enumerate(lines):
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if JobSpec.from_dict(entry["spec"]).fingerprint() == spec.fingerprint():
                found.append((path, lines, number))
    (path, lines, number), = found
    offset = sum(len(line) + 1 for line in lines[:number])
    lines[number] = mutate(lines[number].decode("utf-8")).encode("utf-8")
    path.write_bytes(b"\n".join(lines))
    return path, offset


def edit_metrics(**changes):
    """A ``rewrite_entry`` mutation that overwrites metrics keys (the
    recorded checksum stays, so the payload no longer matches it)."""

    def mutate(line):
        entry = json.loads(line)
        entry["metrics"].update(changes)
        return json.dumps(entry, sort_keys=True, separators=(",", ":"))

    return mutate
