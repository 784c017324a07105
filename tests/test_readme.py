"""README's library quickstart runs and prints the values it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_documented_values():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    documented = dict(re.findall(r"print\((\w+)\(j, prior\)\.value\)\s+# ([\d.]+)\.\.\.", blocks[0]))
    assert set(documented) == {"i_g", "i_g_plus", "i_f"}

    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    for name, prefix in documented.items():
        value = namespace[name](namespace["j"], namespace["prior"]).value
        assert repr(value).startswith(prefix), f"{name} = {value!r}, README says {prefix}..."
        assert repr(value) in printed


def test_config_key_table_matches_the_cli():
    """The CLI section's table lists, per experiment, exactly the keys it accepts."""
    from popcode_mi.cli import _EXPERIMENT_KEYS, _RUN_KEYS

    text = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| (every one|`\w+`) \| (`.*`) \|$", text, flags=re.M))
    table = {name.strip("`"): re.findall(r"`(\w+)`", keys) for name, keys in rows.items()}
    assert set(table) == {"every one", *_EXPERIMENT_KEYS}
    for experiment, keys in _EXPERIMENT_KEYS.items():
        listed = table["every one"] + table[experiment]
        assert len(listed) == len(set(listed)), experiment
        assert set(listed) == set({**_RUN_KEYS, **keys}), experiment
