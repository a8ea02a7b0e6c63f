"""``traffic.py`` lists the function-body statements that traced calls never ran."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("traffic", ROOT / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

FIXTURE = '''\
def called(x):
    """Only the true branch runs."""
    if x:
        return 1
    y = x + 1
    return y


class Box:
    def uncalled(self):
        total = 0
        for i in range(3):
            total += i
        return total
'''


def test_lists_the_uncalled_function_and_the_branch_not_taken(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)

    def load_and_call():
        spec = importlib.util.spec_from_file_location("fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.called(True)

    trace = traffic.LineTrace(tmp_path)
    trace.run(load_and_call)
    trace.run(lambda: traffic.unreached("", set()))  # outside tmp_path: not recorded
    assert list(trace.ran) == [path.resolve()]
    assert traffic.report([path], trace.ran, tmp_path) == [
        "fixture.py: 2 unreached",
        "     5-6    called  y = x + 1",
        "    11-14   Box.uncalled  total = 0",
    ]
