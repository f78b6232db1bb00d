"""Every command's outputs at seed 7 against the committed manifest.

`reference_outputs.py` runs the commands and rewrites the manifest; its
docstring says what each entry holds.
"""

import json

import reference_outputs


def test_every_command_reproduces_its_reference_outputs(tmp_path):
    want = json.loads(reference_outputs.MANIFEST.read_text())
    got = reference_outputs.collect(tmp_path)
    moved = sorted(f"{case}/{step}" for case in want.keys() | got.keys()
                   for step in want.get(case, {}).keys() | got.get(case, {}).keys()
                   if want.get(case, {}).get(step) != got.get(case, {}).get(step))
    assert not moved, (f"outputs moved in {moved}; if on purpose, rewrite the manifest with "
                       "`python tests/reference_outputs.py` and name each moved entry")
