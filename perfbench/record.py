"""Write recorded.json: the reference answers the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Run only at a commit whose answers are trusted.  The file holds the
sha256 of `binarycubics --format json --seed 0 verify --suite all` and
of each character's sparse table on the acceptance box; later runs
compare against these digests, so a change of any answer shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess

from worker import BOX, HERE, VERIFY_ARGV, table_digests


def main() -> None:
    from binarycubics import catalog, characters as ch, cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(VERIFY_ARGV))
    if code != 0:
        raise SystemExit(f"verify exited with {code}; not recording")
    tables = {name: ch.truncate(catalog.character_of(name), *BOX)
              for name in catalog.all_character_names()}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=HERE).stdout.strip()
    data = {
        "label": f"recorded data: answers of commit {commit or 'unknown'}, not recomputed by the benchmark",
        "verify_seed0_json_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "chars_table_sha256": table_digests(tables),
    }
    (HERE / "recorded.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
