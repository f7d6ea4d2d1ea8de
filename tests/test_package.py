"""The package's public names."""

import codesum
import codesum.emitter
import codesum.summarizer


def test_every_exported_name_resolves():
    assert len(set(codesum.__all__)) == len(codesum.__all__)
    for name in codesum.__all__:
        assert hasattr(codesum, name), name


def test_the_message_records_are_gone():
    removed = ("MessageKind", "RapidSummaryMessage", "aggregate", "class_messages", "method_messages")
    for name in removed:
        assert name not in codesum.__all__
        for module in (codesum, codesum.emitter, codesum.summarizer):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
