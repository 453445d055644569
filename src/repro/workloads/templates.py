"""Executable MiniPHP templates for the three applications.

Where :mod:`repro.workloads.apps` describes the applications
*statistically* (operation mixes), this module describes them
*programmatically*: one MiniPHP template per application, shaped like
the real thing's hot path (WordPress loop + texturize, Drupal region
rendering, MediaWiki wikitext transformation), plus a deterministic
variable generator.  Rendering a template through
:class:`repro.runtime.interp.MiniPhpInterpreter` on the accelerated
backend drives every accelerator with *real program semantics*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRng
from repro.runtime.interp import AcceleratedBackend, MiniPhpInterpreter
from repro.workloads.text import ContentSpec, TextCorpus

WORDPRESS_TEMPLATE = """<!doctype html>
<html><head><title><?= htmlspecialchars($blog_name) ?></title></head>
<body class="home blog">
<header><h1><?= strtoupper($blog_name) ?></h1>
<p class="tagline"><?= trim($tagline) ?></p></header>
<main id="content">
<?php foreach ($posts as $slug => $post): ?>
  <article id="post-<?= $slug ?>">
    <h2><a href="/?p=<?= $slug ?>"><?= htmlspecialchars($post['title']) ?></a></h2>
    <div class="entry"><?= preg_replace("'[A-Za-z]+", "&#8217;s", htmlspecialchars($post['content'])) ?></div>
    <p class="meta">by <?= $post['author'] ?> &middot; <?= strlen($post['content']) ?> chars</p>
  </article>
<?php endforeach; ?>
</main>
<?php if (count($posts) > 2): ?><nav class="paging"><a href="/page/2">Older posts</a></nav><?php endif; ?>
<footer><?= str_replace('YEAR', '2017', $footer) ?></footer>
</body></html>"""

DRUPAL_TEMPLATE = """<!doctype html>
<html><head><title><?= htmlspecialchars($site_name) ?> | <?= $section ?></title></head>
<body class="node-page">
<div id="header"><h1><?= $site_name ?></h1></div>
<?php foreach ($regions as $region => $blocks): ?>
<div class="region region-<?= $region ?>">
<?php foreach ($blocks as $block_id => $block): ?>
  <div class="block" id="block-<?= $block_id ?>">
    <h3><?= htmlspecialchars($block['subject']) ?></h3>
    <div class="content"><?= htmlspecialchars($block['body']) ?></div>
  </div>
<?php endforeach; ?>
</div>
<?php endforeach; ?>
<div id="node"><?= preg_replace("\\[[a-z]+", "[token]", htmlspecialchars($node_body)) ?></div>
<div id="footer"><?= strtolower($footer_message) ?></div>
</body></html>"""

MEDIAWIKI_TEMPLATE = """<!doctype html>
<html><head><title><?= $page_title ?> - <?= $wiki_name ?></title></head>
<body class="mediawiki">
<h1 id="firstHeading"><?= htmlspecialchars($page_title) ?></h1>
<div id="bodyContent">
<?php $html = htmlspecialchars($wikitext); ?>
<?php $html = str_replace("[[", "<a>", $html); ?>
<?php $html = str_replace("]]", "</a>", $html); ?>
<?php $html = preg_replace("==+", "<h2>", $html); ?>
<div class="mw-parser-output"><?= $html ?></div>
</div>
<div id="catlinks">
<?php foreach ($categories as $cat): ?><span class="cat"><?= strtoupper($cat) ?></span> <?php endforeach; ?>
</div>
<div class="printfooter">retrieved from <?= strtolower($wiki_name) ?>.example</div>
</body></html>"""


@dataclass(frozen=True)
class AppTemplate:
    """One application's template plus its variable builder name."""

    name: str
    source: str


APP_TEMPLATES: dict[str, AppTemplate] = {
    "wordpress": AppTemplate("wordpress", WORDPRESS_TEMPLATE),
    "drupal": AppTemplate("drupal", DRUPAL_TEMPLATE),
    "mediawiki": AppTemplate("mediawiki", MEDIAWIKI_TEMPLATE),
}


def build_variables(
    app: str, interp: MiniPhpInterpreter, rng: DeterministicRng
) -> dict:
    """Deterministic template variables for one request of ``app``.

    Arrays are created through the interpreter so that, on the
    accelerated backend, they are registered with the hardware hash
    table (the coherence partner registry).
    """
    corpus = TextCorpus(rng.fork(f"{app}-corpus"))
    spec = ContentSpec(paragraphs=1, words_per_paragraph=40,
                       special_segment_fraction=0.3)
    if app == "wordpress":
        posts = interp.new_array()
        for _ in range(rng.randint(2, 4)):
            post = interp.new_array()
            interp.array_set(post, "title",
                             corpus.slug(3).replace("-", " ").title())
            interp.array_set(post, "content", corpus.paragraph(spec))
            interp.array_set(post, "author", corpus.rng.ascii_word(4, 8))
            interp.array_set(posts, corpus.slug(2), post)
        return {
            "blog_name": "Just Another PHP Blog",
            "tagline": "  all content, no cache misses  ",
            "posts": posts,
            "footer": "&copy; YEAR some authors",
        }
    if app == "drupal":
        regions = interp.new_array()
        for region in ("sidebar", "content"):
            blocks = interp.new_array()
            for b in range(rng.randint(1, 3)):
                block = interp.new_array()
                interp.array_set(block, "subject",
                                 corpus.slug(2).replace("-", " "))
                interp.array_set(block, "body", corpus.paragraph(spec))
                interp.array_set(blocks, f"{region}-{b}", block)
            interp.array_set(regions, region, blocks)
        return {
            "site_name": "Drupal Site",
            "section": corpus.rng.ascii_word(4, 9),
            "regions": regions,
            "node_body": "[token] " + corpus.paragraph(spec),
            "footer_message": "POWERED BY REGIONS",
        }
    if app == "mediawiki":
        categories = interp.new_array()
        for i in range(rng.randint(2, 4)):
            interp.array_set(categories, str(i), corpus.rng.ascii_word(4, 9))
        wikitext = (
            f"== {corpus.slug(2)} ==\n"
            f"{corpus.paragraph(spec)} see [[{corpus.slug(2)}]] "
            f"and [[{corpus.slug(3)}]]."
        )
        return {
            "wiki_name": "ReproWiki",
            "page_title": corpus.slug(2).replace("-", " ").title(),
            "wikitext": wikitext,
            "categories": categories,
        }
    raise ValueError(f"unknown app {app!r}")


def render_app_page(
    app: str, interp: MiniPhpInterpreter, rng: DeterministicRng
) -> str:
    """Render one request's page for ``app`` on ``interp``'s backend."""
    template = APP_TEMPLATES[app]
    return interp.render(template.source, build_variables(app, interp, rng))


def render_http_page(
    app: str, seed: int, vary: int = 0, accelerated: bool = True
) -> tuple[str, dict[str, int]]:
    """Render the page the live HTTP server serves for one route.

    The single source of truth for what ``GET /<app>?seed=S&vary=V``
    returns: a fresh interpreter (accelerated backend by default) over
    a rng forked from ``(seed, vary)``, so the bytes are a pure
    function of the query — which is what makes the served-bytes
    differential oracle in :mod:`repro.conformance.oracles` possible,
    and what makes the fragment cache in :mod:`repro.serve.httpd`
    sound (same key, same bytes).  Returns ``(html, op_counters)``
    where the counters are the interpreter/backend work done for this
    render (the telemetry stream's per-request backend column).
    """
    if app not in APP_TEMPLATES:
        raise KeyError(f"unknown app {app!r}")
    if accelerated:
        interp = MiniPhpInterpreter(AcceleratedBackend())
    else:
        interp = MiniPhpInterpreter()
    rng = DeterministicRng(seed).fork(f"serve-{app}-{vary}")
    html = render_app_page(app, interp, rng)
    ops = {
        "var_gets": interp.stats.get("interp.var_gets"),
        "var_sets": interp.stats.get("interp.var_sets"),
        "calls": interp.stats.get("interp.calls"),
        "backend_cycles": int(interp.backend.cost_cycles()),
    }
    return html, ops
