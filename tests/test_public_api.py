"""The package's export list and its imports agree."""

import inspect

import mirrorselect


def test_every_exported_name_resolves():
    missing = [name for name in mirrorselect.__all__ if not hasattr(mirrorselect, name)]
    assert missing == []
    assert len(set(mirrorselect.__all__)) == len(mirrorselect.__all__)


def test_every_public_class_and_function_is_exported():
    public = {
        name
        for name, obj in vars(mirrorselect).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert public - set(mirrorselect.__all__) == set()
