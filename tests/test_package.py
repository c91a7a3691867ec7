import pydoc
import types

import nmlogic
from nmlogic import chain, filters, formula, free_algebra, models, valuations


def test_all_is_every_public_name_the_package_imports():
    submodules = (chain, filters, formula, free_algebra, models, valuations)
    assert nmlogic.__all__ == sorted(nmlogic.__all__)
    for name in nmlogic.__all__:
        value = getattr(nmlogic, name)
        assert not isinstance(value, types.ModuleType), name
        assert any(vars(module).get(name) is value for module in submodules), name
    namespace: dict = {}
    exec("from nmlogic import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == nmlogic.__all__


def test_pydoc_documents_each_public_class_and_function():
    text = pydoc.render_doc(nmlogic, renderer=pydoc.plaintext)
    for name in nmlogic.__all__:
        value = getattr(nmlogic, name)
        if isinstance(value, type):
            assert f"\n    class {name}(" in text, name
        elif isinstance(value, types.FunctionType):
            assert f"\n    {name}(" in text, name
