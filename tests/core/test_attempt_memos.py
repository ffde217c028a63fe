"""The attempt path's derive-once memos: same answers, bounded, thread-safe.

Every attempt on a claim normalizes its candidate SQL, parses the claim
value, renders the schema prompt and scores result/value pairs — all
from inputs that do not change between attempts. Each function is
memoized in the module that owns it; these tests pin that a memo never
changes an answer, never outgrows its stated bound, and survives the
claim pool's threads hitting it at once.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.core.claims import PARSE_MEMO_SIZE, Claim, Span, parse_claim_value
from repro.embeddings import cosine_similarity, default_model, text_similarity
from repro.embeddings.minisim import SIMILARITY_MEMO_SIZE
from repro.sqlengine import Database, Table, normalize_sql, prompt_schema_text
from repro.sqlengine import formatting
from repro.sqlengine.planner import NORMALIZE_MEMO_SIZE

#: Quotes (doubled or not), identifier quotes and every whitespace kind
#: normalize_sql treats specially, plus filler.
_sql_texts = st.text(alphabet="'\" \t\nab=", max_size=40)

_value_texts = st.one_of(
    st.text(alphabet="0123456789,.$%+- ()", max_size=12),
    st.sampled_from(["two", "twenty five", "Two hundred", "ninety-nine",
                     "Malaysia Airlines", "", " . "]),
)


def hammer(check, inputs, threads=4):
    """Run ``check`` over ``inputs`` on ``threads`` threads at once, each
    starting at a different offset, under a shortened switch interval."""
    errors = []

    def work(offset):
        try:
            for item in inputs[offset:] + inputs[:offset]:
                check(item)
        except BaseException as error:  # reported by the assert below
            errors.append(error)

    workers = [
        threading.Thread(target=work, args=(index * len(inputs) // threads,))
        for index in range(threads)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []


def small_database(index):
    database = Database(f"memo{index}")
    database.add(Table("t", ["k", "v"], [(f"row{index}", index)]))
    return database


class TestNormalizeSqlMemo:
    @settings(max_examples=200, deadline=None)
    @given(_sql_texts)
    def test_memo_equals_the_character_loop(self, sql):
        expected = normalize_sql.__wrapped__(sql)
        assert normalize_sql(sql) == expected   # computed or remembered
        assert normalize_sql(sql) == expected   # remembered

    def test_bounded_and_safe_under_four_threads(self):
        assert normalize_sql.cache_info().maxsize == NORMALIZE_MEMO_SIZE
        # More distinct texts than the bound: eviction runs concurrently.
        texts = [f"SELECT  v{index}\tFROM t WHERE k = 'a  {index}'"
                 for index in range(NORMALIZE_MEMO_SIZE + 500)]

        def check(sql):
            assert normalize_sql(sql) == normalize_sql.__wrapped__(sql)

        hammer(check, texts)
        assert normalize_sql.cache_info().currsize <= NORMALIZE_MEMO_SIZE


class TestParseClaimValueMemo:
    @settings(max_examples=200, deadline=None)
    @given(_value_texts)
    def test_memo_equals_the_parser(self, text):
        expected = parse_claim_value.__wrapped__(text)
        for _ in range(2):
            parsed = parse_claim_value(text)
            assert parsed == expected and type(parsed) is type(expected)

    def test_claim_value_reads_through_the_memo(self):
        claim = Claim("There are 1,234 things.", Span(2, 2), "")
        assert claim.value == 1234 and claim.is_numeric
        assert Claim("It was 3.0 high.", Span(2, 2), "").value == 3.0
        assert type(Claim("It was 3.0 high.", Span(2, 2), "").value) is float

    def test_bounded_and_safe_under_four_threads(self):
        assert parse_claim_value.cache_info().maxsize == PARSE_MEMO_SIZE
        texts = [f"{index},{index % 1000:03d}.5"
                 for index in range(PARSE_MEMO_SIZE + 500)]

        def check(text):
            assert parse_claim_value(text) == \
                parse_claim_value.__wrapped__(text)

        hammer(check, texts)
        assert parse_claim_value.cache_info().currsize <= PARSE_MEMO_SIZE


class TestPromptSchemaMemo:
    def test_add_invalidates_the_rendering(self):
        database = small_database(0)
        before = prompt_schema_text(database)
        assert prompt_schema_text(database) is before   # remembered
        database.add(Table("later", ["x"], [(1,)]))
        after = prompt_schema_text(database)
        assert after != before and '"later"' in after
        assert after == formatting._render_prompt_schema(database, 3)

    def test_preview_length_is_part_of_the_key(self):
        database = Database("rows")
        database.add(Table("t", ["v"], [(1,), (2,), (3,)]))
        assert prompt_schema_text(database, sample_rows=1) \
            != prompt_schema_text(database, sample_rows=3)

    def test_bounded_and_safe_under_four_threads(self):
        bound = formatting.SCHEMA_MEMO_SIZE
        assert formatting._SCHEMA_MEMO.max_size == bound
        databases = [small_database(index) for index in range(bound + 40)]

        def check(database):
            assert prompt_schema_text(database) == \
                formatting._render_prompt_schema(database, 3)

        hammer(check, databases)
        assert len(formatting._SCHEMA_MEMO) <= bound


class TestSimilarityMemo:
    def test_remembered_score_is_the_computed_float(self):
        model = default_model()
        pairs = [("Malaysia Airlines", "Malaysian Airlines"),
                 ("Malaysia Airlines", "Aeroflot"), ("", "x"), ("x", "x")]
        for left, right in pairs:
            expected = cosine_similarity(model.encode(left),
                                         model.encode(right))
            # == on floats: bit for bit, so 0.7/0.8 cannot move.
            assert text_similarity(left, right) == expected
            assert text_similarity(left, right) == expected

    def test_bounded_and_safe_under_four_threads(self):
        assert text_similarity.cache_info().maxsize == SIMILARITY_MEMO_SIZE
        pairs = [(f"carrier {index}", f"carier {index % 7}")
                 for index in range(200)]

        def check(pair):
            assert text_similarity(*pair) == \
                text_similarity.__wrapped__(*pair)

        hammer(check, pairs)
        assert text_similarity.cache_info().currsize <= SIMILARITY_MEMO_SIZE
