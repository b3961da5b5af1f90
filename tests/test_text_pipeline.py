"""Tokenization, document filtering, and vocabulary construction."""

import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak, write_jsonl
from oracles import tokenize_oracle
from senmfk_split.errors import DataError, EmptyCorpus, EmptyVocabulary
from senmfk_split.text_pipeline import (
    Corpus,
    Document,
    PipelineConfig,
    build_vocabulary,
    default_stopwords,
    drop_empty_documents,
    filter_documents,
    load_jsonl_corpus,
    load_stopwords,
    load_vocabulary,
    save_jsonl_corpus,
    save_vocabulary,
    tokenize,
)


TRICKY = list("abqzABQZ09 -.\n\u00e9\u00c9\u00df\u0130\u0131\u212a\u017f\ufb00")


def make_corpus(*token_lists):
    return Corpus(tuple(Document(f"d{i}", tuple(ts)) for i, ts in enumerate(token_lists)))


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_splits_and_lowercases(self):
        assert tokenize("Deep Learning, deep-learning 2022!") == [
            "deep",
            "learning",
            "deep",
            "learning",
        ]

    def test_drops_short_tokens(self):
        assert tokenize("A neural-net") == ["neural", "net"]

    def test_digits_are_separators(self):
        # digit runs split words, and the fragments keep the length rule
        assert tokenize("word2vec x9y 2022") == ["word", "vec"]

    def test_non_ascii_letters_are_separators(self):
        # tokens are runs of ASCII letters; accented letters split words
        assert tokenize("résumé naïve") == ["sum", "na", "ve"]

    def test_no_empty_tokens(self):
        rng = np.random.default_rng(3)
        alphabet = list("ab1! -\nZ.")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            toks = tokenize(text)
            assert all(t and len(t) >= 2 and t.isalpha() and t.islower() for t in toks)

    # digits, one-letter runs, non-ASCII letters and characters whose lower
    # case is ASCII (the Kelvin sign) or two characters long (dotted I)
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=40))
    @example("\u212aelvin \u0130stanbul a1b word2vec")
    def test_matches_oracle_property(self, text):
        assert tokenize(text) == tokenize_oracle(text)


class TestFilterDocuments:
    def test_below_threshold_dropped(self):
        corpus = make_corpus(["tok"] * 19)
        out = filter_documents(corpus, PipelineConfig(min_doc_tokens=20, stopwords=frozenset()))
        assert len(out) == 0

    def test_zero_threshold_only_removes_stopwords(self):
        corpus = make_corpus(["the", "model", "works"])
        cfg = PipelineConfig(min_doc_tokens=0)
        out = filter_documents(corpus, cfg)
        assert len(out) == 1
        assert out.documents[0].tokens == ("model", "works")

    def test_size_threshold_preserves_order(self):
        corpus = make_corpus(["aa"] * 5, ["bb"] * 20, ["cc"] * 25)
        out = filter_documents(corpus, PipelineConfig(min_doc_tokens=20, stopwords=frozenset()))
        assert [d.id for d in out] == ["d1", "d2"]

    def test_stopword_count_decides_survival(self):
        # 20 raw tokens but only 19 post-stopword -> dropped
        corpus = make_corpus(["the"] + ["tok"] * 19)
        out = filter_documents(corpus, PipelineConfig(min_doc_tokens=20))
        assert len(out) == 0

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(st.lists(st.sampled_from(["the", "and", "aa", "bb"]), max_size=8), max_size=6),
        st.sets(st.sampled_from(["the", "and", "aa", "zz"])),
        st.integers(0, 5),
    )
    def test_matches_loop_property(self, docs, stop, min_doc_tokens):
        corpus = make_corpus(*docs)
        out = filter_documents(
            corpus, PipelineConfig(min_doc_tokens=min_doc_tokens, stopwords=frozenset(stop))
        )
        expected = []
        for doc in corpus:
            tokens = tuple(t for t in doc.tokens if t not in stop)
            if len(tokens) >= min_doc_tokens:
                expected.append(Document(doc.id, tokens))
        assert out.documents == tuple(expected)


class TestBuildVocabulary:
    def test_boundary_df_kept(self):
        docs = [["term", "pad"]] * 5 + [["pad", "other"]] * 5
        vocab = build_vocabulary(
            make_corpus(*docs), PipelineConfig(min_df=5, max_df_ratio=0.5, stopwords=frozenset())
        )
        assert "term" in vocab and "other" in vocab
        assert "pad" not in vocab  # df = 10 > floor(0.5 * 10)

    def test_ubiquitous_term_excluded(self):
        docs = [["everywhere", f"x{i}"] for i in ["aa", "bb", "cc", "dd"]]
        vocab = build_vocabulary(
            make_corpus(*docs), PipelineConfig(min_df=1, max_df_ratio=0.5, stopwords=frozenset())
        )
        assert "everywhere" not in vocab

    def test_hand_counted_frequencies(self):
        docs = [["a", "b"], ["a", "b"], ["a", "c"], ["a"]]
        vocab = build_vocabulary(
            make_corpus(*docs), PipelineConfig(min_df=2, max_df_ratio=1.0, stopwords=frozenset())
        )
        assert vocab.terms == ("a", "b")

    def test_lexicographic_order_and_index(self):
        docs = [["zz", "mm", "aa"]] * 3
        vocab = build_vocabulary(
            make_corpus(*docs), PipelineConfig(min_df=1, max_df_ratio=1.0, stopwords=frozenset())
        )
        assert vocab.terms == ("aa", "mm", "zz")
        assert all(vocab.index_of[t] == i for i, t in enumerate(vocab.terms))

    def test_empty_vocabulary_raises(self):
        with pytest.raises(EmptyVocabulary):
            build_vocabulary(
                make_corpus(["solo"]), PipelineConfig(min_df=5, stopwords=frozenset())
            )

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary(Corpus(()), PipelineConfig())

    def test_filter_soundness_recount(self, rng):
        # every surviving term's recounted df is within the configured bounds
        for trial in range(20):
            docs = [
                [f"t{int(i)}" for i in rng.integers(0, 12, size=rng.integers(1, 15))]
                for _ in range(int(rng.integers(2, 15)))
            ]
            corpus = make_corpus(*docs)
            cfg = PipelineConfig(min_df=2, max_df_ratio=0.7, stopwords=frozenset())
            try:
                vocab = build_vocabulary(corpus, cfg)
            except EmptyVocabulary:
                continue
            ceiling = int(0.7 * len(corpus))
            for term in vocab.terms:
                df = sum(1 for d in corpus if term in d.tokens)
                assert cfg.min_df <= df <= ceiling


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        docs = [["alpha", "beta", "the"], ["beta", "gamma"], ["alpha", "gamma"]]
        cfg = PipelineConfig(min_doc_tokens=1, min_df=1, max_df_ratio=1.0)
        a = filter_documents(make_corpus(*docs), cfg)
        b = filter_documents(make_corpus(*docs), cfg)
        assert a == b
        assert build_vocabulary(a, cfg) == build_vocabulary(b, cfg)


class TestDropEmptyDocuments:
    def test_out_of_vocab_only_documents_dropped(self):
        docs = [["known", "junk"], ["junk", "junk"]]
        corpus = make_corpus(*docs)
        vocab = build_vocabulary(
            make_corpus(["known"], ["known"]),
            PipelineConfig(min_df=1, max_df_ratio=1.0, stopwords=frozenset()),
        )
        out = drop_empty_documents(corpus, vocab)
        assert [d.id for d in out] == ["d0"]
        # surviving documents keep their OOV tokens (window positions matter)
        assert out.documents[0].tokens == ("known", "junk")


class TestJsonlIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "text": "Alpha beta gamma!"}\n{"id": "b", "text": "beta delta"}\n'
        )
        corpus = load_jsonl_corpus(path)
        assert corpus.ids() == ["a", "b"]
        assert corpus.documents[0].tokens == ("alpha", "beta", "gamma")
        out = tmp_path / "out.jsonl"
        save_jsonl_corpus(corpus, out)
        again = load_jsonl_corpus(out)
        assert again == corpus

    def test_raw_text_tokens_shared(self, tmp_path):
        # 200 Zipf documents of 300 tokens over 676 three-letter terms:
        # a str object per token alone takes about 52 bytes
        rng = np.random.default_rng(7)
        terms = [f"q{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(676)]
        weights = 1.0 / np.arange(1, len(terms) + 1)
        ids = rng.choice(len(terms), size=(200, 300), p=weights / weights.sum())
        lines = [
            json.dumps({"id": f"d{j}", "text": " ".join(terms[i] for i in row)})
            for j, row in enumerate(ids)
        ]
        path = write_jsonl(tmp_path / "c.jsonl", lines)
        corpus, _, held = traced_peak(lambda: load_jsonl_corpus(path))
        tokens = [t for doc in corpus for t in doc.tokens]
        assert len(tokens) == ids.size
        assert len({id(t) for t in tokens}) == len(set(tokens))
        assert held <= 16 * len(tokens)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x y"}\n{"id": "a", "text": "z w"}\n')
        with pytest.raises(DataError):
            load_jsonl_corpus(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyCorpus):
            load_jsonl_corpus(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(DataError):
            load_jsonl_corpus(path)

    def test_text_and_tokens_lines_mix(self, tmp_path):
        # each line says how it is tokenized: text is tokenized, a tokens
        # list is taken as-is (empty strings dropped), and an integer id
        # reads as its digits
        path = write_jsonl(tmp_path / "c.jsonl", [
            '{"id": "a", "text": "Alpha beta!"}',
            '{"id": 7, "tokens": ["Alpha", "", "machine learning"]}',
            '{"id": "c", "text": ""}',
        ])
        corpus = load_jsonl_corpus(path)
        assert corpus.ids() == ["a", "7", "c"]
        assert [d.tokens for d in corpus] == [
            ("alpha", "beta"), ("Alpha", "machine learning"), ()
        ]

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "b", "text": "aa bb", "tokens": ["aa"]}',
            '{"id": "b"}',
            '{"text": "aa bb"}',
            '["b", "aa bb"]',
            '{"id": "b", "text": null}',
            '{"id": "b", "text": ["aa", "bb"]}',
            '{"id": null, "text": "aa bb"}',
            '{"id": true, "text": "aa bb"}',
            '{"id": 1.5, "text": "aa bb"}',
            '{"id": ["b"], "tokens": ["aa"]}',
            '{"id": "b", "tokens": "aa bb"}',
            '{"id": "b", "tokens": null}',
            '{"id": "b", "tokens": ["aa", null]}',
            '{"id": "b", "tokens": ["aa", true]}',
            '{"id": "b", "tokens": ["aa", 12]}',
            '{"id": "b", "tokens": ["aa", {"x": 1}]}',
            '{"id": "b", "tokens": [false]}',
            '{"id": ' + "1" * 5000 + ', "text": "aa bb"}',
        ],
        ids=[
            "both", "neither", "no-id", "not-object", "null-text", "list-text", "null-id",
            "bool-id", "float-id", "list-id", "string-tokens", "null-tokens", "null-token",
            "bool-token", "int-token", "object-token", "falsy-token", "huge-int-id",
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        # before, str() made data of these: a null text the token "none",
        # a null id the id "None", a token 12 the token "12"
        path = write_jsonl(tmp_path / "c.jsonl", ['{"id": "a", "text": "aa bb"}', line])
        with pytest.raises(DataError, match="c.jsonl:2: "):
            load_jsonl_corpus(path)


class TestVocabularyIO:
    def test_round_trip_with_recount(self, tmp_path):
        docs = [["a", "b"], ["a", "c"], ["a", "b"]]
        corpus = make_corpus(*docs)
        vocab = build_vocabulary(
            corpus, PipelineConfig(min_df=1, max_df_ratio=1.0, stopwords=frozenset())
        )
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        assert path.read_text() == "a\nb\nc\n"
        again = load_vocabulary(path)
        assert again == vocab


class TestStopwords:
    def test_default_list_is_lowercase_nonempty(self):
        stops = default_stopwords()
        assert "the" in stops and "and" in stops
        assert all(s == s.lower() for s in stops)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\nbar\n\n")
        assert load_stopwords(path) == frozenset({"foo", "bar"})

    def test_blank_lines_edge_spaces_and_crlf(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\r\n  foo \r\n\tbar\r\n \r\nbaz\rqux\n\n")
        assert load_stopwords(path) == frozenset({"foo", "bar", "baz", "qux"})

    def test_only_newlines_end_a_line(self, tmp_path):
        # str.splitlines also split at a form feed, \x85 and \u2028
        path = tmp_path / "stop.txt"
        path.write_text("a\fb\nc\x85d\ne\u2028f\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"a\fb", "c\x85d", "e\u2028f"})

    def test_bundled_list_read_as_a_custom_file(self):
        bundled = resources.files("senmfk_split.data") / "stopwords_en.txt"
        with resources.as_file(bundled) as path:
            assert default_stopwords() == load_stopwords(path)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_df_ratio": 0.0},
            {"max_df_ratio": 1.5},
            {"min_df": 0},
            {"min_doc_tokens": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(stopwords=frozenset(), **kwargs)
