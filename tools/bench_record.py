"""Appends one labeled entry to a checked-in BENCH_*.json trajectory.

Shared by the tools/bench_*.sh recorders; each keeps its own gates.
"""
import json
import pathlib


def append_entry(path, label, benchmarks, description, time_unit=None,
                 indent=2):
    """Appends {label[, time_unit], benchmarks} to the trajectory at `path`
    (created with `description` when missing) and rewrites the file with
    `indent`.  Returns (doc, entry, prev): prev is the entry that was last
    before this one, or None."""
    entry = {"label": label}
    if time_unit is not None:
        entry["time_unit"] = time_unit
    entry["benchmarks"] = dict(benchmarks)
    path = pathlib.Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {
        "description": description,
        "trajectory": [],
    }
    prev = doc["trajectory"][-1] if doc["trajectory"] else None
    doc["trajectory"].append(entry)
    path.write_text(json.dumps(doc, indent=indent) + "\n")
    print(f"appended '{label}' to {path}")
    return doc, entry, prev
