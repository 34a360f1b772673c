"""The golden output corpus (see golden.py): every case in golden.json,
replayed in process, exits with the code and writes the bytes it records."""

import golden


def test_outputs_match_the_golden_corpus(tmp_path):
    manifest = golden.load()
    same_python = manifest["python"] == golden.python()
    assert [(e["argv"], e.get("argparse", False)) for e in manifest["cases"]] == list(golden.cases()), (
        "the manifest lists other cases than golden.cases(): rewrite it with tests/golden.py"
    )
    differ = []
    with golden.environment(tmp_path):
        for entry in manifest["cases"]:
            got, written = golden.run(entry["argv"], tmp_path)
            keys = ["exit"] if entry.get("argparse") and not same_python else list(got)
            changed = [k for k in keys if got[k] != entry[k]]
            if changed:
                shown = "".join(f"\n  new {k}: {written.get(k, got[k])!r:.400}" for k in changed)
                differ.append(" ".join(entry["argv"]) + shown)
    assert not differ, f"{len(differ)} of {len(manifest['cases'])} cases differ:\n" + "\n".join(differ)
