"""End-to-end acceptance checks for the shipped behavior contract.

Each test covers one numbered criterion and prints a single PASS line;
exact-match snapshots are frozen here as literals on purpose.
"""

import time
from random import Random

from codesum import cli
from codesum.diagnostics import has_errors
from codesum.extractor import parse_project
from codesum.summarizer import RenderingConfig, class_sentences, method_sentences, render_name_list
from codesum.xml_io import export_xml, import_xml

from conftest import FIXTURES, lookup_class
from modelgen import random_model

CONFIG = RenderingConfig()


def _method(model, package, class_name, method_name):
    cls = lookup_class(model, package, class_name)
    assert cls is not None, f"{package}.{class_name} missing from model"
    return next(m for m in cls.methods if m.name == method_name)


def test_criterion_1_oval_class_messages_are_exact_and_fast():
    started = time.perf_counter()
    model, diagnostics, _ = parse_project(FIXTURES / "drawing-shapes")
    assert not has_errors(diagnostics)
    cls = lookup_class(model, "coreElements", "MyOval")
    sentences = class_sentences(cls, CONFIG)
    elapsed = time.perf_counter() - started
    assert sentences == [
        "The name of this class is MyOval.",
        "The access level for this class is public.",
        "The package to which this class belongs is coreElements.",
        "This class inherits from the MyShape class.",
        "This class contains the following attribute: example.",
        "This class contains the following methods: MyOval and draw.",
    ]
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 1: PASS - six exact class sentences in {elapsed:.3f}s")


def test_criterion_2_entry_point_method_paragraph_is_exact(drawing_shapes_model):
    method = _method(drawing_shapes_model, "mainPackage", "drawingShapes", "main")
    paragraph = " ".join(method_sentences(method, CONFIG))
    assert paragraph == (
        "The name of this method is main. "
        "The access level for this method is public. "
        "The return data type for this method is void. "
        "The class to which this method belongs is drawingShapes. "
        "This method contains 1 parameter. "
        "This method consists of the following parameter: args and its data type is string. "
        "This method contains the following local variable: application and its data type is drawingShapes. "
        "This method accesses the following attributes: application and exit_on_close. "
        "This method invokes the following method: setDefaultCloseOperation."
    )
    print("criterion 2: PASS - entry-point method paragraph matches exactly")


def test_criterion_3_line_draw_method_paragraph_is_exact(drawing_shapes_model):
    method = _method(drawing_shapes_model, "coreElements", "MyLine", "draw")
    paragraph = " ".join(method_sentences(method, CONFIG))
    assert paragraph == (
        "The name of this method is draw. "
        "The access level for this method is public. "
        "The return data type for this method is void. "
        "The class to which this method belongs is MyLine. "
        "This method contains 1 parameter. "
        "This method consists of the following parameter: g and its data type is Graphics. "
        "This method contains the following local variable: painterPaintJPanel and its data type is JPanel. "
        "This method accesses the following attribute: g. "
        "This method invokes the following methods: setColor, getColor, drawLine, getX1, getY1, getX2 and getY2."
    )
    print("criterion 3: PASS - draw method paragraph matches exactly")


def test_criterion_4_builder_getter_paragraph_is_exact(nanoxml_model):
    method = _method(nanoxml_model, "net.n3.nanoxml", "StdXMLBuilder", "getResult")
    paragraph = " ".join(method_sentences(method, CONFIG))
    assert paragraph == (
        "The name of this method is getResult. "
        "The access level for this method is public. "
        "The return data type for this method is object. "
        "The class to which this method belongs is StdXMLBuilder. "
        "This method accesses the following attribute: root."
    )
    print("criterion 4: PASS - getter paragraph matches exactly, including the mapped return type")


def test_criterion_5_status_event_class_paragraph_is_exact(argouml_model):
    cls = lookup_class(argouml_model, "org.argouml.application.events", "ArgoStatusEvent")
    paragraph = " ".join(class_sentences(cls, CONFIG))
    assert paragraph == (
        "The name of this class is ArgoStatusEvent. "
        "The access level for this class is public. "
        "The package to which this class belongs is org.argouml.application.events. "
        "This class inherits from the ArgoEvent class. "
        "This class contains the following attribute: text. "
        "This class contains the following methods: ArgoStatusEvent, getEventStartRange and getText."
    )
    print("criterion 5: PASS - status-event class paragraph matches exactly")


def test_criterion_6_reader_invocation_list_keeps_duplicates_in_order(nanoxml_model):
    method = _method(nanoxml_model, "net.n3.nanoxml", "StdXMLReader", "read")
    assert [i.name for i in method.method_invocations] == ["read", "empty", "close", "pop", "read"]
    assert method_sentences(method, CONFIG)[-1] == (
        "This method invokes the following methods: read, empty, close, pop and read."
    )
    print("criterion 6: PASS - duplicated call names survive in source order")


def test_criterion_7_randomized_models_round_trip_through_xml():
    rng = Random(20240811)
    for index in range(200):
        model = random_model(rng)
        text = export_xml(model)
        restored, diagnostics = import_xml(text)
        assert diagnostics == [], f"model {index}: {[str(d) for d in diagnostics]}"
        assert restored == model, f"model {index} did not round-trip"
        assert repr(restored) == repr(model), f"model {index} changed a record's type"
        assert export_xml(restored) == text, f"model {index} export is not byte-stable"
    print("criterion 7: PASS - 200 randomized models round-trip with byte-stable export")


def test_criterion_8_name_lists_use_commas_then_a_single_and():
    rng = Random(88)
    alphabet = "abcdefghijklmnopqrstuvwxyz"

    def fresh_name():
        name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
        return name + "x" if name == "and" else name

    for length in range(1, 11):
        for _ in range(20):
            names = [fresh_name() for _ in range(length)]
            rendered = render_name_list(names)
            assert rendered.count(",") == max(0, length - 2), rendered
            assert rendered.count(" and ") == (1 if length >= 2 else 0), rendered
    five = render_name_list(["read", "empty", "close", "pop", "read"])
    assert five.count(",") == 3 and five.count(" and ") == 1
    print("criterion 8: PASS - list punctuation follows the comma/and rule for 1..10 names")


def test_criterion_9_full_stage_equals_extract_then_summarize(tmp_path):
    started = time.perf_counter()
    for project in ("drawing-shapes", "nanoxml-like", "argouml-like"):
        base = tmp_path / project
        full = base / "full"
        extracted = base / "extracted"
        summarized = base / "summarized"
        assert cli.main(["--in", str(FIXTURES / project), "--out", str(full), "--stage", "full"]) == 0
        assert cli.main(["--in", str(FIXTURES / project), "--out", str(extracted), "--stage", "extract"]) == 0
        assert (
            cli.main(
                ["--xml", str(extracted / "model.xml"), "--out", str(summarized), "--stage", "summarize"]
            )
            == 0
        )
        assert (full / "model.xml").read_bytes() == (extracted / "model.xml").read_bytes(), project
        assert (full / "summary.txt").read_bytes() == (summarized / "summary.txt").read_bytes(), project
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    print(f"criterion 9: PASS - staged and single runs agree byte-for-byte in {elapsed:.3f}s")
