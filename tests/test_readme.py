import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_statuses(capsys):
    # the statuses the README states for its quick start are the ones the
    # code gives
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["report"].status.value == "Converged"
    report2 = scope["report2"]
    assert report2.status.value == "LineSearchFailure"
    assert report2.iterations == 2
    assert f"{report2.final_grad_norm:.1e}" == "3.6e-04"


def test_config_defaults_block():
    # the README lists every config key with its default value
    from cfcg.cli import _FIELD_KINDS, ExperimentConfig, _parse_value
    block = re.search(r"with these defaults:\n\n```\n(.*?)```",
                      README.read_text(), re.S).group(1)
    pairs = re.findall(r"(\w+) = (\S*)", block)
    assert sorted(k for k, _ in pairs) == sorted(_FIELD_KINDS)
    values = {k: _parse_value(v, _FIELD_KINDS[k]) for k, v in pairs}
    assert ExperimentConfig(**values) == ExperimentConfig()
