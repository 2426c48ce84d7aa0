"""Corpus loading, dataset adapters, normalization, and grading."""

from __future__ import annotations

import json
import logging
import os

import pytest

from entropygate.clustering import read_audit_record, write_audit_record
from entropygate.corpus import (
    GRADER_CONTAINMENT,
    GRADER_EXACT,
    GRADER_MODEL,
    ImageQuestion,
    grade,
    import_grades,
    load_corpus,
    load_rad_dataset,
    load_vqa_med,
    normalize_text,
    write_corpus,
)
from entropygate.errors import (
    CorpusFormatError,
    GradingError,
    UnknownQuestionIdsError,
    read_bytes,
    write_text_atomic,
)
from entropygate.gateway import ROLE_GRADE, Backend, MockBackend, ModelReply


class ScriptedGrader(Backend):
    """Replies ``replies[ordinal]`` to grade requests (the last one past
    its end) and records the ordinals asked."""

    def __init__(self, *replies):
        super().__init__()
        self.replies = replies
        self.ordinals = []

    def invoke(self, request):
        assert request.role == ROLE_GRADE and request.temperature == 0.0
        self.ordinals.append(request.ordinal)
        text = self.replies[min(request.ordinal, len(self.replies) - 1)]
        return ModelReply(text=text, tokens_in=5, tokens_out=1, latency_ms=2.0, fingerprint="g")


def make_item(**overrides) -> ImageQuestion:
    base = dict(
        id="q1",
        image_ref="img.png",
        question="What is shown?",
        reference="ct scan",
        dataset="demo",
        subgroup="modality",
    )
    base.update(overrides)
    return ImageQuestion(**base)


class TestImageQuestion:
    def test_required_fields(self):
        with pytest.raises(ValueError):
            make_item(id="")
        with pytest.raises(ValueError):
            make_item(question="   ")
        with pytest.raises(ValueError):
            make_item(reference="")
        make_item(image_ref="")  # image may be absent


class TestCanonicalCorpus:
    def test_round_trip(self, tmp_path):
        items = [make_item(id="a"), make_item(id="b", subgroup="plane")]
        path = tmp_path / "corpus.jsonl"
        write_corpus(items, path)
        assert load_corpus(path) == items

    def test_relative_image_paths_are_taken_from_the_file_folder(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        refs = ["img.png", "../shared/img.png", "/abs/img.png", "data:image/png;base64,AA",
                "https://host/img.png"]
        with open(tmp_path / "data" / "corpus.jsonl", "w") as handle:
            for index, ref in enumerate(refs):
                record = {"id": f"q{index}", "image": ref, "question": "Q?", "reference": "r",
                          "dataset": "d", "subgroup": "s"}
                handle.write(json.dumps(record) + "\n")
        loaded = load_corpus("data/corpus.jsonl")
        assert [item.image_ref for item in loaded] == [
            "data/img.png", "shared/img.png", "/abs/img.png", "data:image/png;base64,AA",
            "https://host/img.png",
        ]
        write_corpus(loaded, "out/corpus.jsonl")
        assert load_corpus("out/corpus.jsonl") == loaded

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {
            "id": "a", "image": "i.png", "question": "Q?", "reference": "r",
            "dataset": "d", "subgroup": "s",
        }
        path.write_text("\n" + json.dumps(record) + "\n\n")
        assert len(load_corpus(path)) == 1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {
            "id": "a", "image": "i.png", "question": "Q?", "reference": "r",
            "dataset": "d", "subgroup": "s",
        }
        path.write_text(json.dumps(record) + "\n{oops\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            load_corpus(path)
        assert excinfo.value.line == 2

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "a", "question": "Q?"}) + "\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            load_corpus(path)
        assert excinfo.value.line == 1

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {
            "id": "a", "image": "i.png", "question": "Q?", "reference": "r",
            "dataset": "d", "subgroup": "s",
        }
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_empty_corpus_warns(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with caplog.at_level(logging.WARNING, logger="entropygate.corpus"):
            assert load_corpus(path) == []
        assert any("empty" in record.getMessage() for record in caplog.records)


class TestWriteTextAtomic:
    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_text_atomic(tmp_path / "a.json", "{}")
        assert list(tmp_path.iterdir()) == []

    def test_unchanged_content_is_not_rewritten(self, tmp_path):
        path = tmp_path / "sub" / "a.json"
        write_text_atomic(path, "{}\n")
        os.utime(path, ns=(10**18, 10**18))
        write_text_atomic(path, "{}\n")
        assert path.stat().st_mtime_ns == 10**18
        write_text_atomic(path, "{}")  # a prefix of the content is a change
        assert path.read_bytes() == b"{}"
        assert [p.name for p in path.parent.iterdir()] == ["a.json"]


class TestRecords:
    def test_compact_in_place_and_unchanged_not_rewritten(self, tmp_path):
        path = tmp_path / "clusters" / "q-1.json"
        record = {"text": "é", "b": [1.5, None], "a": 1}
        write_audit_record(path, record)
        assert path.read_text(encoding="utf-8") == '{"a":1,"b":[1.5,null],"text":"é"}\n'
        assert read_audit_record(path) == record
        os.utime(path, ns=(10**18, 10**18))
        write_audit_record(path, record)
        assert path.stat().st_mtime_ns == 10**18
        write_audit_record(path, {**record, "a": 2})
        assert read_audit_record(path)["a"] == 2
        assert [p.name for p in path.parent.iterdir()] == ["q-1.json"]

    def test_indented_record_still_reads(self, tmp_path):
        path = tmp_path / "q-1.json"
        path.write_text(json.dumps({"k": 15, "samples": ["ct"]}, indent=2) + "\n")
        assert read_audit_record(path) == {"k": 15, "samples": ["ct"]}

    @pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16])
    def test_read_bytes_reads_the_whole_file(self, tmp_path, size):
        path = tmp_path / "blob"
        data = os.urandom(size)
        path.write_bytes(data)
        assert read_bytes(path) == data


class TestVqaMedAdapter:
    def test_three_field_lines_use_file_stem_subgroup(self, tmp_path):
        path = tmp_path / "Modality.txt"
        path.write_text(
            "synpic100|what modality is shown?|ct\n"
            "synpic200|is this mri?|yes\n"
        )
        items = load_vqa_med(path)
        assert [i.subgroup for i in items] == ["modality", "modality"]
        assert items[0].id == "modality-synpic100"
        assert items[0].reference == "ct"
        assert items[0].dataset == "VQA-Med-2019"

    def test_four_field_lines_use_category_column(self, tmp_path):
        path = tmp_path / "all.txt"
        path.write_text(
            "synpic1|Organ System|which organ is shown?|lung\n"
            "synpic2|Abnormalities|what abnormality is seen?|mass\n"
        )
        items = load_vqa_med(path)
        assert [i.subgroup for i in items] == ["organ", "abnormality"]

    def test_directory_reads_txt_files_sorted(self, tmp_path):
        (tmp_path / "b.txt").write_text("s2|q2?|a2\n")
        (tmp_path / "a.txt").write_text("s1|q1?|a1\n")
        (tmp_path / "notes.md").write_text("ignored")
        items = load_vqa_med(tmp_path)
        assert [i.subgroup for i in items] == ["a", "b"]

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("only|two\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            load_vqa_med(path)
        assert excinfo.value.line == 1

    def test_repeated_image_gets_suffixed_id(self, tmp_path):
        path = tmp_path / "modality.txt"
        path.write_text("synpic1|q one?|a\nsynpic1|q two?|b\n")
        items = load_vqa_med(path)
        assert len({i.id for i in items}) == 2


class TestRadDatasetAdapter:
    def write_csv(self, path, rows, header="image,modality,diagnosis"):
        path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))

    def test_basic_rows(self, tmp_path):
        path = tmp_path / "cases.csv"
        self.write_csv(path, ["scan1.png,CT,pneumonia", "scan2.png,MRI,glioma"])
        items = load_rad_dataset(path)
        assert [i.subgroup for i in items] == ["CT", "MRI"]
        assert items[0].reference == "pneumonia"
        assert items[0].question  # default question filled in

    @pytest.mark.parametrize(
        "raw,canonical",
        [("mr", "MRI"), ("x ray", "radiography"), ("x-ray", "radiography"),
         ("angiogram", "angiography"), ("ct scan", "CT")],
    )
    def test_modality_aliases(self, tmp_path, raw, canonical):
        path = tmp_path / "cases.csv"
        self.write_csv(path, [f"s.png,{raw},finding"])
        assert load_rad_dataset(path)[0].subgroup == canonical

    def test_unknown_modality_kept_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cases.csv"
        self.write_csv(path, ["s.png,Ultrasound,finding"])
        with caplog.at_level(logging.WARNING, logger="entropygate.corpus"):
            items = load_rad_dataset(path)
        assert items[0].subgroup == "ultrasound"
        assert any("modality" in record.getMessage() for record in caplog.records)

    def test_optional_columns(self, tmp_path):
        path = tmp_path / "cases.csv"
        self.write_csv(
            path,
            ["case7,s.png,CT,effusion,What fluid is present?,65-year-old smoker"],
            header="id,image,modality,diagnosis,question,context",
        )
        [item] = load_rad_dataset(path)
        assert item.id == "case7"
        assert "65-year-old smoker" in item.question
        assert "What fluid is present?" in item.question

    def test_relative_image_path_is_taken_from_the_manifest_folder(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cases").mkdir()
        self.write_csv(tmp_path / "cases" / "cases.csv",
                       ["s.png,CT,x", "/abs/t.png,CT,y", "https://host/u.png,CT,z"])
        items = load_rad_dataset("cases/cases.csv")
        assert [item.image_ref for item in items] == [
            "cases/s.png", "/abs/t.png", "https://host/u.png"
        ]

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "cases.csv"
        self.write_csv(path, ["s.png,pneumonia"], header="image,diagnosis")
        with pytest.raises(CorpusFormatError, match="modality"):
            load_rad_dataset(path)

    def test_duplicate_explicit_ids(self, tmp_path):
        path = tmp_path / "cases.csv"
        self.write_csv(
            path,
            ["dup,a.png,CT,x", "dup,b.png,CT,y"],
            header="id,image,modality,diagnosis",
        )
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_rad_dataset(path)


class TestNormalizeText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("CT scan", "ct scan"),
            ("  lots   of\tspace  ", "lots of space"),
            ("Pneumonia.", "pneumonia"),
            ("Yes!", "yes"),
            ("A; B", "a; b"),  # only trailing punctuation stripped
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_text(raw) == expected


class TestGrade:
    def test_exact(self):
        item = make_item(reference="CT scan")
        assert grade(item, "ct scan.", GRADER_EXACT).correct
        assert not grade(item, "a ct scan", GRADER_EXACT).correct

    def test_containment_both_directions(self):
        item = make_item(reference="pneumonia")
        assert grade(item, "likely pneumonia in the left lobe", GRADER_CONTAINMENT).correct
        longer = make_item(reference="left lower lobe pneumonia")
        assert grade(longer, "pneumonia", GRADER_CONTAINMENT).correct
        assert not grade(item, "pleural effusion", GRADER_CONTAINMENT).correct

    def test_model_judge(self):
        backend = MockBackend(grade_replies={"q1": "Yes, equivalent."})
        result = grade(make_item(), "computed tomography", GRADER_MODEL, backend=backend)
        assert result.correct
        assert result.grader == GRADER_MODEL

    def test_model_judge_requires_backend(self):
        with pytest.raises(ValueError):
            grade(make_item(), "x", GRADER_MODEL)

    def test_model_judge_failure_wrapped(self):
        backend = MockBackend(grade_replies={})  # no reply for q1
        with pytest.raises(GradingError, match="q1"):
            grade(make_item(), "x", GRADER_MODEL, backend=backend)

    def test_model_judge_unparseable_wrapped(self):
        backend = MockBackend(grade_replies={"q1": "hmm"})
        with pytest.raises(GradingError):
            grade(make_item(), "x", GRADER_MODEL, backend=backend)

    def test_model_judge_asks_again_after_an_unparseable_reply(self):
        backend = ScriptedGrader("maybe", "No.")
        result = grade(make_item(), "mri", GRADER_MODEL, backend=backend)
        assert backend.ordinals == [0, 1]
        assert result.correct is False
        assert result.grader == GRADER_MODEL

    def test_model_judge_asks_three_times_then_raises(self):
        backend = ScriptedGrader("maybe")
        with pytest.raises(GradingError, match="unparseable reply 'maybe'"):
            grade(make_item(), "x", GRADER_MODEL, backend=backend)
        assert backend.ordinals == [0, 1, 2]

    def test_unknown_grader(self):
        with pytest.raises(ValueError, match="unknown grader"):
            grade(make_item(), "x", "vibes")


class TestImportGrades:
    def test_comma_and_whitespace_forms(self, tmp_path):
        path = tmp_path / "grades.txt"
        path.write_text(
            "# manual review 2024-06\n"
            "q1,1\n"
            "q2 0\n"
            "q3\ttrue\n"
            "q4, no\n"
        )
        grades = import_grades(path, known_ids={"q1", "q2", "q3", "q4"})
        assert grades == {"q1": True, "q2": False, "q3": True, "q4": False}

    def test_unknown_ids_rejected(self, tmp_path):
        path = tmp_path / "grades.txt"
        path.write_text("q1,1\nmystery,0\n")
        with pytest.raises(UnknownQuestionIdsError, match="mystery"):
            import_grades(path, known_ids={"q1"})

    def test_bad_verdict_reports_line(self, tmp_path):
        path = tmp_path / "grades.txt"
        path.write_text("q1,maybe\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            import_grades(path, known_ids={"q1"})
        assert excinfo.value.line == 1

    def test_last_entry_wins(self, tmp_path):
        path = tmp_path / "grades.txt"
        path.write_text("q1,0\nq1,1\n")
        assert import_grades(path, known_ids={"q1"}) == {"q1": True}
