"""Unit + integration tests: the MiniPHP template interpreter."""

from __future__ import annotations

import pytest

from repro.runtime.interp import (
    TEMPLATE_CACHE_SIZE,
    AcceleratedBackend,
    MiniPhpError,
    MiniPhpInterpreter,
    SoftwareBackend,
    compile_template,
    split_template,
    tokenize_code,
)


def render(template: str, variables=None, backend=None) -> str:
    interp = MiniPhpInterpreter(backend or SoftwareBackend())
    return interp.render(template, variables or {})


class TestLexer:
    def test_token_kinds(self):
        toks = tokenize_code("$x = strtoupper('hi') . 42;")
        kinds = [t.kind for t in toks]
        assert kinds == ["var", "op", "name", "op", "string", "op", "op",
                         "number", "op"]

    def test_keywords_detected(self):
        toks = tokenize_code("foreach ($a as $v):")
        assert toks[0].kind == "kw"

    def test_double_arrow_single_token(self):
        toks = tokenize_code("'k' => 1")
        assert [t.text for t in toks] == ["'k'", "=>", "1"]

    def test_bad_character_raises(self):
        with pytest.raises(MiniPhpError):
            tokenize_code("$x = @!")


class TestSplitTemplate:
    def test_literals_and_tags(self):
        segments = split_template("a<?= $x ?>b<?php $y = 1; ?>c")
        assert [(s.kind, s.body) for s in segments] == [
            ("literal", "a"), ("echo", "$x"), ("literal", "b"),
            ("code", "$y = 1;"), ("literal", "c"),
        ]

    def test_unterminated_tag(self):
        with pytest.raises(MiniPhpError):
            split_template("<?php forever")


class TestExpressions:
    def test_echo_literal(self):
        assert render("<?= 'hi' ?>") == "hi"

    def test_echo_number_and_bool(self):
        assert render("<?= 5 ?>|<?= true ?>|<?= false ?>") == "5|1|"

    def test_variables(self):
        assert render("<?= $x ?>", {"x": "v"}) == "v"

    def test_undefined_variable_raises(self):
        with pytest.raises(MiniPhpError):
            render("<?= $nope ?>")

    def test_concatenation(self):
        assert render("<?= 'a' . 'b' . 'c' ?>") == "abc"

    def test_comparisons(self):
        assert render("<?= 2 > 1 ?>") == "1"
        assert render("<?= 'a' == 'b' ?>") == ""

    def test_string_escapes(self):
        assert render("<?= 'it\\'s' ?>") == "it's"
        assert render('<?= "a\\nb" ?>') == "a\nb"

    def test_array_literal_and_index(self):
        out = render("<?php $a = array('k' => 'v'); ?><?= $a['k'] ?>")
        assert out == "v"

    def test_array_positional_keys(self):
        out = render("<?php $a = array('x', 'y'); ?><?= $a['1'] ?>")
        assert out == "y"

    def test_parenthesized(self):
        assert render("<?= ('a' . 'b') . 'c' ?>") == "abc"


class TestFunctions:
    def test_string_functions(self):
        assert render("<?= strtoupper('ab') ?>") == "AB"
        assert render("<?= strtolower('AB') ?>") == "ab"
        assert render("<?= trim('  x ') ?>") == "x"
        assert render("<?= strlen('abcd') ?>") == "4"
        assert render("<?= strpos('hello', 'll') ?>") == "2"
        assert render("<?= str_replace('a', 'o', 'cat') ?>") == "cot"
        assert render("<?= substr('abcdef', 2, 3) ?>") == "cde"
        assert render("<?= htmlspecialchars('<b>') ?>") == "&lt;b&gt;"

    def test_preg_functions(self):
        assert render("<?= preg_match('<[a-z]+>', 'a <em> b') ?>") == "1"
        assert render("<?= preg_replace('[0-9]', '#', 'a1b2') ?>") == "a#b#"

    def test_implode(self):
        out = render(
            "<?php $a = array('x', 'y', 'z'); ?><?= implode(', ', $a) ?>"
        )
        assert out == "x, y, z"

    def test_extract(self):
        out = render(
            "<?php $vars = array('name' => 'gope'); "
            "extract($vars); ?><?= $name ?>"
        )
        assert out == "gope"

    def test_count(self):
        assert render("<?php $a = array(1, 2, 3); ?><?= count($a) ?>") == "3"

    def test_unknown_function_raises(self):
        with pytest.raises(MiniPhpError):
            render("<?= eval_danger('x') ?>")


class TestStatements:
    def test_assignment(self):
        assert render("<?php $x = 'v'; ?><?= $x ?>") == "v"

    def test_multiple_statements_in_one_island(self):
        assert render("<?php $a = 'x'; $b = $a . 'y'; ?><?= $b ?>") == "xy"

    def test_indexed_assignment(self):
        out = render(
            "<?php $a = array(); $a['k'] = 'v'; ?><?= $a['k'] ?>"
        )
        assert out == "v"

    def test_echo_statement(self):
        assert render("<?php echo 'direct'; ?>") == "direct"


class TestControlFlow:
    def test_foreach_values(self):
        out = render(
            "<?php $a = array('x', 'y'); ?>"
            "<?php foreach ($a as $v): ?>[<?= $v ?>]<?php endforeach; ?>"
        )
        assert out == "[x][y]"

    def test_foreach_key_value(self):
        out = render(
            "<?php $a = array('k1' => 'v1', 'k2' => 'v2'); ?>"
            "<?php foreach ($a as $k => $v): ?>"
            "<?= $k ?>=<?= $v ?>;"
            "<?php endforeach; ?>"
        )
        assert out == "k1=v1;k2=v2;"

    def test_foreach_preserves_insertion_order(self):
        out = render(
            "<?php $a = array('z' => 1, 'a' => 2, 'm' => 3); ?>"
            "<?php foreach ($a as $k => $v): ?><?= $k ?><?php endforeach; ?>"
        )
        assert out == "zam"

    def test_nested_foreach(self):
        out = render(
            "<?php $outer = array('a', 'b'); $inner = array('1', '2'); ?>"
            "<?php foreach ($outer as $o): ?>"
            "<?php foreach ($inner as $i): ?><?= $o ?><?= $i ?>,"
            "<?php endforeach; ?><?php endforeach; ?>"
        )
        assert out == "a1,a2,b1,b2,"

    def test_if_true_branch(self):
        assert render("<?php if (1 < 2): ?>yes<?php endif; ?>") == "yes"

    def test_if_false_branch(self):
        assert render("<?php if (2 < 1): ?>yes<?php endif; ?>") == ""

    def test_if_else(self):
        out = render(
            "<?php if ($x == 'a'): ?>A<?php else: ?>B<?php endif; ?>",
            {"x": "b"},
        )
        assert out == "B"

    def test_missing_endforeach_raises(self):
        with pytest.raises(MiniPhpError):
            render("<?php $a = array(1); ?>"
                   "<?php foreach ($a as $v): ?>x")


class TestErrorLaziness:
    """A template fails when, and only when, its broken part runs."""

    def test_broken_echo_in_an_untaken_branch_is_harmless(self):
        assert render(
            "<?php if (false): ?><?= foo( ?><?php endif; ?>ok"
        ) == "ok"

    def test_bad_character_in_an_untaken_echo_is_harmless(self):
        assert render(
            "<?php if (false): ?><?= $x @ 1 ?><?php endif; ?>ok"
        ) == "ok"

    def test_bad_character_in_an_untaken_code_island_raises(self):
        # Finding the endif reads every code island before it.
        with pytest.raises(MiniPhpError, match="bad character"):
            render("<?php if (false): ?><?php $x = @; ?>"
                   "<?php endif; ?>ok")

    def test_statements_before_a_broken_one_still_run(self):
        interp = MiniPhpInterpreter(SoftwareBackend())
        with pytest.raises(MiniPhpError):
            interp.render("<?php $a = 'x'; $b = ; ?>")
        assert interp.get_variable("a") == "x"

    def test_trailing_tokens_raise(self):
        with pytest.raises(MiniPhpError, match="trailing tokens"):
            render("<?= 'a' 'b' ?>")

    def test_unterminated_tag_raises(self):
        with pytest.raises(MiniPhpError, match="unterminated"):
            render("ok <?= 'x'")

    def test_indexing_a_non_array_raises(self):
        with pytest.raises(MiniPhpError, match="non-array"):
            render("<?php $s = 'str'; ?><?= $s['k'] ?>")

    def test_mixed_type_comparison_raises_type_error(self):
        # All six comparisons are evaluated, whichever one was written.
        with pytest.raises(TypeError):
            render("<?= 'a' == 1 ?>")


NESTED_TEMPLATE = (
    "<?php $rows = array('a' => array('1', '2'), 'b' => array('3')); ?>"
    "<?php foreach ($rows as $k => $items): ?><?= $k ?>:"
    "<?php if ($k == 'a'): ?>"
    "<?php foreach ($items as $v): ?>"
    "<?php if ($v == '1'): ?>one<?php else: ?>[<?= $v ?>]<?php endif; ?>"
    "<?php endforeach; ?>"
    "<?php else: ?>other<?php endif; ?>;"
    "<?php endforeach; ?>"
)


class TestCompiledTemplates:
    @pytest.mark.parametrize("backend", [SoftwareBackend,
                                         AcceleratedBackend])
    def test_nested_foreach_if_else(self, backend):
        out = render(NESTED_TEMPLATE, backend=backend())
        assert out == "a:one[2];b:other;"

    def test_cache_holds_at_most_its_bound(self):
        for i in range(TEMPLATE_CACHE_SIZE + 10):
            assert render(f"<?= {i} ?>") == str(i)
        info = compile_template.cache_info()
        assert info.maxsize == TEMPLATE_CACHE_SIZE
        assert info.currsize <= TEMPLATE_CACHE_SIZE

    def test_compiled_form_is_shared_and_unchanged_by_renders(self):
        source = ("<?php $a = array('x'); $a['1'] = $y; ?>"
                  "<?= count($a) ?>:<?= implode(',', $a) ?>")
        code = compile_template(source)
        assert isinstance(code, tuple)
        # The array literal builds a fresh array on every render, and
        # variables never leak into the compiled form.
        assert render(source, {"y": "p"}) == "2:x,p"
        assert render(source, {"y": "q"}) == "2:x,q"
        assert compile_template(source) is code


BLOG_TEMPLATE = """<article>
<h1><?= strtoupper($title) ?></h1>
<?php foreach ($posts as $slug => $body): ?>
<section id="<?= $slug ?>"><?= htmlspecialchars($body) ?></section>
<?php endforeach; ?>
<?php if (count($posts) > 1): ?><nav>older posts</nav><?php endif; ?>
<footer><?= preg_replace("'[A-Za-z]+", "&rsquo;", $tagline) ?></footer>
</article>"""


def _blog_vars(interp: MiniPhpInterpreter) -> dict:
    posts = interp.new_array()
    interp.array_set(posts, "hello-world", "Hello <world> & all")
    interp.array_set(posts, "second", "It's another 'post' here")
    return {"title": "my blog", "posts": posts,
            "tagline": "don't stop 'til done"}


class TestBackendEquivalence:
    def test_software_and_accelerated_render_identically(self):
        sw = MiniPhpInterpreter(SoftwareBackend())
        out_sw = sw.render(BLOG_TEMPLATE, _blog_vars(sw))
        hw = MiniPhpInterpreter(AcceleratedBackend())
        out_hw = hw.render(BLOG_TEMPLATE, _blog_vars(hw))
        assert out_sw == out_hw
        assert "MY BLOG" in out_sw
        assert "&lt;world&gt;" in out_sw

    def test_accelerated_backend_uses_hardware(self):
        hw = MiniPhpInterpreter(AcceleratedBackend())
        hw.render(BLOG_TEMPLATE, _blog_vars(hw))
        complex_ = hw.backend.complex
        assert complex_.string.stats.get("hwstring.ops") > 0
        assert complex_.hash_table.stats.get("hwhash.sets") > 0
        assert complex_.hash_table.stats.get("hwhash.foreach_syncs") > 0

    def test_costs_are_reported(self):
        sw = MiniPhpInterpreter(SoftwareBackend())
        sw.render(BLOG_TEMPLATE, _blog_vars(sw))
        assert sw.backend.cost_cycles() > 0
