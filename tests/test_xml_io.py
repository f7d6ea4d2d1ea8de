"""Byte-stable export, tolerant import, and round-trip identity."""

import copy
import hashlib
import xml.etree.ElementTree as ElementTree
from random import Random

import pytest

from codesum.diagnostics import Severity, has_errors
from codesum.model import (
    AccessLevel,
    AttributeAccess,
    AttributeDecl,
    ClassDecl,
    CodeModel,
    LocalVariableDecl,
    MethodDecl,
    MethodInvocation,
    PackageDecl,
    ParameterDecl,
)
from codesum import cli, extractor, xml_io
from codesum.extractor import parse_project
from codesum.model import validate_model
from codesum.xml_io import export_xml, import_xml

from conftest import FIXTURES
from modelgen import random_model

EMPTY_DOC = '<?xml version="1.0" encoding="UTF-8"?>\n<Project ProjectName="demo">\n  <Packages/>\n</Project>\n'

FULL_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<Project ProjectName="demo">
  <Packages>
    <Package PackageName="p">
      <Classes>
        <Class Name="C" AccessLevel="public" Superclass="" DeclaredPackage="p">
          <Attributes>
            <Attribute Name="x" AccessLevel="private" Type="int"/>
          </Attributes>
          <Methods>
            <Method Name="m" AccessLevel="public" ReturnType="void" DeclaredClass="C">
              <Parameters NumberOfParameters="1">
                <Parameter ParameterName="a" ParameterType="int"/>
              </Parameters>
              <LocalVariables>
                <LocalVariable LocalVariableName="v" LocalVariableType="char"/>
              </LocalVariables>
              <AttributeAccesses>
                <AttributeAccess Name="x" Type="int"/>
              </AttributeAccesses>
              <MethodInvocations>
                <MethodInvocation Name="f" AccessedIn="external"/>
              </MethodInvocations>
            </Method>
          </Methods>
        </Class>
      </Classes>
    </Package>
  </Packages>
</Project>
"""


def _full_model():
    method = MethodDecl(
        name="m",
        access_level=AccessLevel.PUBLIC,
        return_type="void",
        declared_class="C",
        parameters=(ParameterDecl("a", "int"),),
        local_variables=(LocalVariableDecl("v", "char"),),
        attribute_accesses=(AttributeAccess("x", "int"),),
        method_invocations=(MethodInvocation("f", "external"),),
    )
    cls = ClassDecl(
        name="C",
        access_level=AccessLevel.PUBLIC,
        declared_package="p",
        attributes=(AttributeDecl("x", AccessLevel.PRIVATE, "int"),),
        methods=(method,),
    )
    return CodeModel("demo", (PackageDecl("p", (cls,)),))


def test_empty_model_document_is_exact():
    assert export_xml(CodeModel("demo", ())) == EMPTY_DOC


def test_full_document_shape_is_exact():
    assert export_xml(_full_model()) == FULL_DOC


def test_export_is_deterministic():
    model = _full_model()
    assert export_xml(model) == export_xml(model)


def test_attribute_values_are_escaped_and_restored():
    cls = ClassDecl(name='a<b&"c', access_level=AccessLevel.PUBLIC, declared_package="p>q")
    model = CodeModel("d&d", (PackageDecl("p>q", (cls,)),))
    text = export_xml(model)
    assert 'ProjectName="d&amp;d"' in text
    assert 'Name="a&lt;b&amp;&quot;c"' in text
    assert 'PackageName="p&gt;q"' in text
    restored, diagnostics = import_xml(text)
    assert diagnostics == []
    assert restored == model
    assert repr(restored) == repr(model)


def test_fixture_models_round_trip(corpus_models):
    for model in corpus_models.values():
        restored, diagnostics = import_xml(export_xml(model))
        assert diagnostics == []
        assert restored == model
        assert repr(restored) == repr(model)


def test_randomized_models_round_trip():
    rng = Random(1199)
    for _ in range(40):
        model = random_model(rng)
        text = export_xml(model)
        restored, diagnostics = import_xml(text)
        assert diagnostics == [], [str(d) for d in diagnostics]
        assert restored == model
        assert repr(restored) == repr(model)
        assert export_xml(restored) == text


def test_equal_values_in_different_containers_are_one_object():
    # Values longer than one character, which the interpreter does not cache.
    text = FULL_DOC.replace('"C"', '"Cart"').replace('"int"', '"long"')
    model, diagnostics = import_xml(text)
    assert diagnostics == []
    cls = model.packages[0].classes[0]
    method = cls.methods[0]
    assert cls.name == "Cart" and cls.name is method.declared_class
    types = [
        cls.attributes[0].declared_type,
        method.parameters[0].declared_type,
        method.attribute_accesses[0].resolved_type,
    ]
    assert types == ["long"] * 3 and types[0] is types[1] is types[2]


def test_superclass_attribute_round_trips_none_and_names():
    base = ClassDecl(name="B", access_level=AccessLevel.PUBLIC, declared_package="p")
    child = ClassDecl(name="C", access_level=AccessLevel.PUBLIC, declared_package="p", superclass="B")
    model = CodeModel("demo", (PackageDecl("p", (base, child)),))
    text = export_xml(model)
    assert 'Name="B" AccessLevel="public" Superclass=""' in text
    assert 'Name="C" AccessLevel="public" Superclass="B"' in text
    restored, _ = import_xml(text)
    assert restored.packages[0].classes[0].superclass is None
    assert restored.packages[0].classes[1].superclass == "B"


def _duplicate_attribute_model():
    attributes = (AttributeDecl("x", AccessLevel.PUBLIC, "int"), AttributeDecl("x", AccessLevel.PUBLIC, "char"))
    cls = ClassDecl(name="C", access_level=AccessLevel.PUBLIC, declared_package="p", attributes=attributes)
    return CodeModel("demo", (PackageDecl("p", (cls,)),))


def _duplicate_attribute_inputs(root):
    """The same broken model as source code and as a model document."""
    source = root / "src"
    source.mkdir()
    (source / "C.java").write_text("package p;\npublic class C { public int x; public char x; }\n", encoding="utf-8")
    document = root / "model.xml"
    document.write_text(export_xml(_duplicate_attribute_model()), encoding="utf-8")
    return source, document


def test_a_broken_model_is_rejected_where_it_enters(tmp_path):
    source, document = _duplicate_attribute_inputs(tmp_path)
    model, diagnostics, _ = parse_project(source)
    assert [str(d) for d in diagnostics if d.severity is Severity.ERROR] == [
        f"{(source / 'C.java').as_posix()}:2:44: error: duplicate field 'x' in class 'C' (dropped)"
    ]
    assert [attribute.declared_type for attribute in model.packages[0].classes[0].attributes] == ["int"]

    _, diagnostics = import_xml(document.read_text(encoding="utf-8"))
    assert [str(d) for d in diagnostics] == ["<model>: error: p.C.x: duplicate attribute name within class"]


def test_a_broken_model_exits_1_and_writes_nothing(tmp_path, capsys):
    source, document = _duplicate_attribute_inputs(tmp_path)
    configs = [
        cli.RunConfig(out_dir=tmp_path / "from-source", input_dir=source),
        cli.RunConfig(out_dir=tmp_path / "from-xml", xml_path=document, stage=cli.STAGE_SUMMARIZE),
    ]
    for config in configs:
        assert cli.run(config) == 1
        assert not config.out_dir.exists()
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("stage", [cli.STAGE_EXTRACT, cli.STAGE_SUMMARIZE, cli.STAGE_FULL])
def test_a_model_is_validated_once_per_run(stage, tmp_path, monkeypatch, capsys):
    extracted = tmp_path / "extracted"
    assert cli.run(cli.RunConfig(out_dir=extracted, input_dir=FIXTURES / "drawing-shapes", stage=cli.STAGE_EXTRACT)) == 0
    calls = []

    def counting_validate(model):
        calls.append(model.project_name)
        return validate_model(model)

    monkeypatch.setattr(extractor, "validate_model", counting_validate)
    monkeypatch.setattr(xml_io, "validate_model", counting_validate)
    if stage == cli.STAGE_SUMMARIZE:
        config = cli.RunConfig(out_dir=tmp_path / "out", xml_path=extracted / "model.xml", stage=stage)
    else:
        config = cli.RunConfig(out_dir=tmp_path / "out", input_dir=FIXTURES / "drawing-shapes", stage=stage)
    assert cli.run(config) == 0
    assert calls == ["drawing-shapes"]


def test_malformed_document_is_an_error():
    model, diagnostics = import_xml("<Project")
    assert model == CodeModel("", ())
    assert has_errors(diagnostics)
    assert any("malformed XML" in d.message for d in diagnostics)


def _element_tree_error(text: str) -> str | None:
    """ElementTree's ``ParseError`` text for a document, or None if it parses."""
    try:
        ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        return str(exc)
    return None


def _with_doctype(declaration: str, old: str, new: str) -> str:
    body = FULL_DOC.split("\n", 1)[1]
    assert old in body
    return f"<!DOCTYPE Project {declaration}>\n" + body.replace(old, new, 1)


def test_malformed_documents_are_reported_as_element_tree_reports_them():
    documents = [FULL_DOC[:end] for end in range(len(FULL_DOC) + 1)] + [
        FULL_DOC.replace("<Project ", '<Project xmlns="urn:p" '),
        FULL_DOC.replace("<Packages>", '<q:Packages xmlns:q="urn:q">').replace("</Packages>", "</q:Packages>"),
        FULL_DOC.replace("<Packages>", "<q:Packages>").replace("</Packages>", "</q:Packages>"),
        _with_doctype('[<!ENTITY e "p">]', 'PackageName="p"', 'PackageName="&e;"'),
        _with_doctype('[<!ENTITY e "p">]', "<Packages>", "&e;&amp;&#65;<Packages>"),
        _with_doctype('[<!ENTITY e "p">]', "<Packages>", "&u;<Packages>"),
        _with_doctype('SYSTEM "x.dtd"', "<Packages>", "\n  &e;<Packages>"),
        _with_doctype('SYSTEM "x.dtd"', 'PackageName="p"', 'PackageName="&e;"'),
        _with_doctype('SYSTEM "x.dtd"', "<Packages>", f"&{'n' * 120};<Packages>"),
        _with_doctype('SYSTEM "x.dtd" [<!ENTITY % q "x"> %q; %r;]', "<Packages>", "&e;<Packages>"),
        _with_doctype('[<!ENTITY e SYSTEM "e.xml">]', "<Packages>", "&e;<Packages>"),
        _with_doctype('[<!ENTITY e SYSTEM "e.xml"><!ENTITY a "x&e;">]', "<Packages>", "&a;<Packages>"),
        _with_doctype('[<!ATTLIST Package Extra CDATA "d">]', "<Packages>", "<!-- c --><?pi x?>text<Packages>"),
    ]
    for text in documents:
        expected = _element_tree_error(text)
        _, diagnostics = import_xml(text)
        malformed = [d.message for d in diagnostics if d.message.startswith("malformed XML: ")]
        assert malformed == ([f"malformed XML: {expected}"] if expected else []), text


def test_namespaced_names_read_as_element_tree_names_them():
    _, diagnostics = import_xml(FULL_DOC.replace("<Project ", '<Project xmlns="urn:p" '))
    assert [str(d) for d in diagnostics] == ["<model>: error: unknown root element '{urn:p}Project', expected 'Project'"]
    text = FULL_DOC.replace("<Packages>", '<q:Packages xmlns:q="urn:q" q:Size="1">').replace("</Packages>", "</q:Packages>")
    model, diagnostics = import_xml(text)
    assert [str(d) for d in diagnostics] == ["<model>: warning: unknown element <{urn:q}Packages> under <Project> (ignored)"]
    assert model == CodeModel("demo", ())
    text = FULL_DOC.replace('<Project ProjectName="demo">', '<Project xmlns:q="urn:q" ProjectName="demo" q:Size="1">')
    model, diagnostics = import_xml(text)
    assert [str(d) for d in diagnostics] == ["<model>: warning: unknown attribute '{urn:q}Size' on <Project> (ignored)"]
    assert model == _full_model()


def test_unknown_root_element_is_an_error():
    model, diagnostics = import_xml("<Zoo/>")
    assert model == CodeModel("", ())
    assert any("unknown root element" in d.message for d in diagnostics)


def test_unknown_attribute_is_ignored_with_a_warning():
    text = FULL_DOC.replace('<Project ProjectName="demo">', '<Project ProjectName="demo" Extra="1">')
    model, diagnostics = import_xml(text)
    assert [d.severity for d in diagnostics] == [Severity.WARNING]
    assert any("unknown attribute 'Extra'" in d.message for d in diagnostics)
    assert model == _full_model()


def test_unknown_element_is_ignored_with_a_warning():
    text = FULL_DOC.replace("<MethodInvocations>", "<Oddity/>\n              <MethodInvocations>")
    model, diagnostics = import_xml(text)
    assert any(d.severity is Severity.WARNING and "unknown element <Oddity>" in d.message for d in diagnostics)
    assert model == _full_model()


@pytest.mark.parametrize("tag", ["Attribute", "Parameter", "LocalVariable", "AttributeAccess", "MethodInvocation"])
def test_element_under_a_leaf_is_ignored_with_a_warning(tag):
    start = FULL_DOC.index(f"<{tag} ")
    end = FULL_DOC.index("/>", start)
    text = f"{FULL_DOC[:end]}><Kid/></{tag}>{FULL_DOC[end + 2:]}"
    model, diagnostics = import_xml(text)
    assert [str(d) for d in diagnostics] == [f"<model>: warning: unknown element <Kid> under <{tag}> (ignored)"]
    assert model == _full_model()


def test_warnings_under_leaves_follow_their_containers_warnings():
    text = FULL_DOC.replace(
        '<Attribute Name="x" AccessLevel="private" Type="int"/>',
        '<Attribute Name="x" AccessLevel="cosmic" Type="int"><Kid/></Attribute>'
        '<Attribute Name="y" AccessLevel="private" Type="int" Extra="1"><Kid2/></Attribute><Oddity/>',
    ).replace(
        '<Parameter ParameterName="a" ParameterType="int"/>',
        '<Parameter ParameterName="a" ParameterType="int"><Kid3/></Parameter>'
        '<Parameter ParameterName="b" ParameterType="int" Extra="2"/>',
    )
    _, diagnostics = import_xml(text)
    assert [d.message for d in diagnostics] == [
        "unknown attribute 'Extra' on <Attribute> (ignored)",
        "unknown element <Oddity> under <Attributes> (ignored)",
        "unknown element <Kid> under <Attribute> (ignored)",
        "unknown access level 'cosmic' on <Attribute>, using package-private",
        "unknown element <Kid2> under <Attribute> (ignored)",
        "unknown attribute 'Extra' on <Parameter> (ignored)",
        "unknown element <Kid3> under <Parameter> (ignored)",
        "NumberOfParameters='1' disagrees with 2 Parameter elements; using the element count",
    ]


def test_parameter_count_mismatch_prefers_the_elements():
    text = FULL_DOC.replace('NumberOfParameters="1"', 'NumberOfParameters="7"')
    model, diagnostics = import_xml(text)
    assert any(
        d.severity is Severity.WARNING and "NumberOfParameters" in d.message and "element count" in d.message
        for d in diagnostics
    )
    method = model.packages[0].classes[0].methods[0]
    assert [p.name for p in method.parameters] == ["a"]


def test_repeated_containers_warn_and_each_parameters_counts_its_own_elements():
    second = '<Parameters NumberOfParameters="1"><Parameter ParameterName="b" ParameterType="int"/></Parameters>'
    text = FULL_DOC.replace("<LocalVariables>", f"{second}\n              <LocalVariables>").replace(
        "<Methods>", '<Attributes><Attribute Name="y" AccessLevel="private" Type="int"/></Attributes>\n<Methods>'
    )
    model, diagnostics = import_xml(text)
    assert [str(d) for d in diagnostics] == [
        "<model>: warning: duplicate <Attributes> under <Class> (merged)",
        "<model>: warning: duplicate <Parameters> under <Method> (merged)",
    ]
    cls = model.packages[0].classes[0]
    assert [a.name for a in cls.attributes] == ["x", "y"]
    assert [p.name for p in cls.methods[0].parameters] == ["a", "b"]


def test_unknown_access_level_degrades_to_package_private():
    text = FULL_DOC.replace('<Class Name="C" AccessLevel="public"', '<Class Name="C" AccessLevel="cosmic"')
    model, diagnostics = import_xml(text)
    assert any("unknown access level 'cosmic'" in d.message for d in diagnostics)
    assert model.packages[0].classes[0].access_level is AccessLevel.PACKAGE_PRIVATE


# Tags the import reads children from; a mutation never adds a child to any
# other element, because elements under leaves are checked separately.
_PARENT_TAGS = [
    "Project", "Packages", "Package", "Classes", "Class", "Attributes", "Methods", "Method",
    "Parameters", "LocalVariables", "AttributeAccesses", "MethodInvocations",
]
_CONTAINER_TAGS = [tag for tag in _PARENT_TAGS if tag.endswith("s")]
# Known attribute and element names mixed with unknown ones, so a mutation
# can misplace a known name as well as invent one.
_MUTANT_ATTRIBUTES = ["Extra", "Name", "Type", "AccessLevel", "NumberOfParameters", "Superclass", "ParameterName"]
_MUTANT_TAGS = ["Oddity", "Package", "Class", "Method", "Attribute", "Parameter", "Methods", "Parameters"]
_MUTANT_VALUES = ["", "0", "1", "7", "x", "public", "cosmic", "C", "int"]


def _mutate(root, rng: Random) -> None:
    """Apply one seeded edit to a parsed model document."""
    elements = list(root.iter())
    parents = [element for element in elements if element.tag in _PARENT_TAGS]
    with_attributes = [element for element in elements if element.attrib]
    edit = rng.choice((
        "delete attribute", "rename attribute", "insert attribute", "insert element", "graft element",
        "delete container", "duplicate container", "access level", "parameter count", "second parameters",
        "superclass",
    ))
    if edit in ("delete attribute", "rename attribute") and with_attributes:
        element = rng.choice(with_attributes)
        name = rng.choice(sorted(element.attrib))
        value = element.attrib.pop(name)
        if edit == "rename attribute":
            element.set(rng.choice(_MUTANT_ATTRIBUTES), value)
    elif edit == "insert attribute":
        rng.choice(elements).set(rng.choice(_MUTANT_ATTRIBUTES), rng.choice(_MUTANT_VALUES))
    elif edit == "insert element":
        parent = rng.choice(parents)
        element = ElementTree.Element(rng.choice(_MUTANT_TAGS))
        if rng.random() < 0.5:
            element.set(rng.choice(_MUTANT_ATTRIBUTES), rng.choice(_MUTANT_VALUES))
        parent.insert(rng.randrange(len(parent) + 1), element)
    elif edit == "graft element":
        parent = rng.choice(parents)
        parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(rng.choice(elements[1:] or elements)))
    elif edit in ("delete container", "duplicate container"):
        pairs = [(parent, child) for parent in parents for child in parent if child.tag in _CONTAINER_TAGS]
        if pairs:
            parent, child = rng.choice(pairs)
            if edit == "delete container":
                parent.remove(child)
            else:
                parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(child))
    elif edit == "access level":
        targets = [element for element in elements if element.tag in ("Class", "Attribute", "Method")] or elements
        rng.choice(targets).set("AccessLevel", rng.choice(["cosmic", "", "PUBLIC", "public", "protected"]))
    elif edit in ("parameter count", "second parameters"):
        methods = [element for element in elements if element.tag == "Method"]
        if methods:
            method = rng.choice(methods)
            if edit == "parameter count":
                for parameters in method.iter("Parameters"):
                    parameters.set("NumberOfParameters", rng.choice(["0", "1", "2", "7", "-1", "x", ""]))
            else:
                second = ElementTree.Element("Parameters", {"NumberOfParameters": rng.choice(["0", "1", "2"])})
                if rng.random() < 0.5:
                    second.append(ElementTree.Element("Parameter", {"ParameterName": "b", "ParameterType": "int"}))
                method.insert(rng.randrange(len(method) + 1), second)
    elif edit == "superclass":
        classes = [element for element in elements if element.tag == "Class"]
        if classes:
            cls = rng.choice(classes)
            cls.set("Superclass", "" if cls.get("Superclass") else rng.choice(["B", cls.get("Name", "")]))


def _import_corpus(seed: int = 9, documents: int = 40, per_document: int = 10):
    """Seeded mutants of FULL_DOC and of random models' exports, each made by
    one to three edits."""
    rng = Random(seed)
    texts = [FULL_DOC] + [export_xml(random_model(rng)) for _ in range(documents - 1)]
    for text in texts:
        for _ in range(per_document):
            root = ElementTree.fromstring(text)
            for _ in range(rng.randint(1, 3)):
                _mutate(root, rng)
            yield ElementTree.tostring(root, encoding="unicode")


def _import_digest(corpus) -> str:
    """sha256 over each document's imported model and every diagnostic, in order."""
    digest = hashlib.sha256()
    for text in corpus:
        model, diagnostics = import_xml(text)
        digest.update(repr(model).encode())
        for diagnostic in diagnostics:
            digest.update(f"\n{diagnostic}".encode())
        digest.update(b"\0")
    return digest.hexdigest()


# sha256 of ``_import_digest`` over ``_import_corpus()``, recorded before the
# model document's shape was stated in one table, and again when a repeated
# container began to warn and each ``Parameters`` to be counted on its own.
_IMPORT_DIGEST = "db16cb14b966ebd9585a38839b36d29c797508e0ca5a3a271c412d4b753777b9"


def test_mutated_documents_import_as_recorded():
    assert _import_digest(_import_corpus()) == _IMPORT_DIGEST
