// Parser tests: structural golden dumps for every construct, the paper's
// own code fragments, and grammar error positions.
#include <gtest/gtest.h>

#include "ast/printer.hpp"
#include "parse/parser.hpp"

namespace {

using lol::parse::parse_expression;
using lol::parse::parse_program;
using lol::support::ParseError;

std::string expr_dump(std::string_view src) {
  return lol::ast::dump(*parse_expression(src));
}

std::string first_stmt_dump(std::string_view body) {
  std::string src = "HAI 1.2\n" + std::string(body) + "\nKTHXBYE\n";
  lol::ast::Program p = parse_program(src);
  EXPECT_FALSE(p.body.empty()) << body;
  return lol::ast::dump(*p.body.front());
}

// -- expressions ---------------------------------------------------------------

TEST(ParseExpr, Literals) {
  EXPECT_EQ(expr_dump("42"), "(numbr 42)");
  EXPECT_EQ(expr_dump("-3"), "(numbr -3)");
  EXPECT_EQ(expr_dump("0.5"), "(numbar 0.5)");
  EXPECT_EQ(expr_dump("WIN"), "(troof WIN)");
  EXPECT_EQ(expr_dump("FAIL"), "(troof FAIL)");
  EXPECT_EQ(expr_dump("NOOB"), "(noob)");
  EXPECT_EQ(expr_dump("\"hai\""), "(yarn \"hai\")");
}

TEST(ParseExpr, BinaryOps) {
  EXPECT_EQ(expr_dump("SUM OF 1 AN 2"), "(sum (numbr 1) (numbr 2))");
  EXPECT_EQ(expr_dump("DIFF OF a AN b"), "(diff (var a) (var b))");
  EXPECT_EQ(expr_dump("PRODUKT OF a AN b"), "(produkt (var a) (var b))");
  EXPECT_EQ(expr_dump("QUOSHUNT OF a AN b"), "(quoshunt (var a) (var b))");
  EXPECT_EQ(expr_dump("MOD OF a AN b"), "(mod (var a) (var b))");
  EXPECT_EQ(expr_dump("BIGGR OF a AN b"), "(biggr (var a) (var b))");
  EXPECT_EQ(expr_dump("SMALLR OF a AN b"), "(smallr (var a) (var b))");
  EXPECT_EQ(expr_dump("BOTH SAEM a AN b"), "(saem (var a) (var b))");
  EXPECT_EQ(expr_dump("DIFFRINT a AN b"), "(diffrint (var a) (var b))");
  EXPECT_EQ(expr_dump("BIGGER a AN b"), "(bigger (var a) (var b))");
  EXPECT_EQ(expr_dump("SMALLR a AN b"), "(smallr< (var a) (var b))");
  EXPECT_EQ(expr_dump("BOTH OF a AN b"), "(both (var a) (var b))");
  EXPECT_EQ(expr_dump("EITHER OF a AN b"), "(either (var a) (var b))");
  EXPECT_EQ(expr_dump("WON OF a AN b"), "(won (var a) (var b))");
}

TEST(ParseExpr, AnIsOptional) {
  EXPECT_EQ(expr_dump("SUM OF 1 2"), "(sum (numbr 1) (numbr 2))");
}

TEST(ParseExpr, NestedPrefixExpressions) {
  EXPECT_EQ(expr_dump("SUM OF PRODUKT OF a AN b AN c"),
            "(sum (produkt (var a) (var b)) (var c))");
  // The paper's n-body: QUOSHUNT OF SUM OF ME AN WHATEVAR AN 1000.
  EXPECT_EQ(expr_dump("QUOSHUNT OF SUM OF ME AN WHATEVAR AN 1000"),
            "(quoshunt (sum (me) (whatevar)) (numbr 1000))");
}

TEST(ParseExpr, UnaryAndMathExtensions) {
  EXPECT_EQ(expr_dump("NOT x"), "(not (var x))");
  EXPECT_EQ(expr_dump("SQUAR OF x"), "(squar (var x))");
  EXPECT_EQ(expr_dump("UNSQUAR OF x"), "(unsquar (var x))");
  EXPECT_EQ(expr_dump("FLIP OF x"), "(flip (var x))");
  EXPECT_EQ(expr_dump("FLIP OF UNSQUAR OF SUM OF dx AN dy"),
            "(flip (unsquar (sum (var dx) (var dy))))");
}

TEST(ParseExpr, VariadicOps) {
  EXPECT_EQ(expr_dump("ALL OF a AN b AN c MKAY"),
            "(all (var a) (var b) (var c))");
  EXPECT_EQ(expr_dump("ANY OF a AN b MKAY"), "(any (var a) (var b))");
  EXPECT_EQ(expr_dump("SMOOSH a AN b MKAY"), "(smoosh (var a) (var b))");
  // MKAY may be omitted at end of statement.
  EXPECT_EQ(expr_dump("ALL OF a AN b"), "(all (var a) (var b))");
}

TEST(ParseExpr, CastAndSrs) {
  EXPECT_EQ(expr_dump("MAEK x A NUMBAR"), "(maek (var x) NUMBAR)");
  EXPECT_EQ(expr_dump("SRS x"), "(srs (var x))");
}

TEST(ParseExpr, ParallelLeaves) {
  EXPECT_EQ(expr_dump("ME"), "(me)");
  EXPECT_EQ(expr_dump("MAH FRENZ"), "(mah-frenz)");
  EXPECT_EQ(expr_dump("WHATEVR"), "(whatevr)");
  EXPECT_EQ(expr_dump("WHATEVAR"), "(whatevar)");
  EXPECT_EQ(expr_dump("IT"), "(it)");
}

TEST(ParseExpr, UrMahQualifiers) {
  EXPECT_EQ(expr_dump("UR x"), "(var ur x)");
  EXPECT_EQ(expr_dump("MAH x"), "(var mah x)");
  EXPECT_EQ(expr_dump("UR pos_x'Z j"), "(index (var ur pos_x) (var j))");
}

TEST(ParseExpr, Indexing) {
  EXPECT_EQ(expr_dump("arr'Z 3"), "(index (var arr) (numbr 3))");
  EXPECT_EQ(expr_dump("arr'Z SUM OF i AN 1"),
            "(index (var arr) (sum (var i) (numbr 1)))");
}

TEST(ParseExpr, FunctionCall) {
  EXPECT_EQ(expr_dump("I IZ foo MKAY"), "(call foo)");
  EXPECT_EQ(expr_dump("I IZ foo YR 1 AN YR x MKAY"),
            "(call foo (numbr 1) (var x))");
}

// -- statements -----------------------------------------------------------------

TEST(ParseStmt, Declarations) {
  EXPECT_EQ(first_stmt_dump("I HAS A x"), "(decl i x)");
  EXPECT_EQ(first_stmt_dump("I HAS A x ITZ 5"),
            "(decl i x init=(numbr 5))");
  EXPECT_EQ(first_stmt_dump("I HAS A x ITZ A NUMBR"), "(decl i x :NUMBR)");
  EXPECT_EQ(first_stmt_dump("I HAS A x ITZ SRSLY A NUMBAR"),
            "(decl i x :NUMBAR srsly)");
  EXPECT_EQ(first_stmt_dump("I HAS A x ITZ A NUMBR AN ITZ ME"),
            "(decl i x :NUMBR init=(me))");
}

TEST(ParseStmt, ArrayDeclarations) {
  EXPECT_EQ(
      first_stmt_dump("I HAS A v ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32"),
      "(decl i v :NUMBAR srsly array size=(numbr 32))");
  EXPECT_EQ(first_stmt_dump("I HAS A v ITZ LOTZ A YARNS AN THAR IZ 4"),
            "(decl i v :YARN array size=(numbr 4))");
}

TEST(ParseStmt, SymmetricDeclarations) {
  EXPECT_EQ(first_stmt_dump("WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT"),
            "(decl we x :NUMBR srsly sharin)");
  EXPECT_EQ(
      first_stmt_dump("WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 100"),
      "(decl we a :NUMBR srsly array size=(numbr 100))");
  // Paper §VI.D: size clause, then IM SHARIN IT, joined by AN.
  EXPECT_EQ(first_stmt_dump("WE HAS A p ITZ SRSLY LOTZ A NUMBARS ...\n"
                            "  AN THAR IZ 32 AN IM SHARIN IT"),
            "(decl we p :NUMBAR srsly array size=(numbr 32) sharin)");
}

TEST(ParseStmt, AssignmentForms) {
  EXPECT_EQ(first_stmt_dump("x R 5"), "(assign (var x) (numbr 5))");
  EXPECT_EQ(first_stmt_dump("arr'Z 0 R 5"),
            "(assign (index (var arr) (numbr 0)) (numbr 5))");
  EXPECT_EQ(first_stmt_dump("UR b R MAH a"),
            "(assign (var ur b) (var mah a))");
  EXPECT_EQ(first_stmt_dump("IT R 1"), "(assign (it) (numbr 1))");
}

TEST(ParseStmt, VisibleAndGimmeh) {
  EXPECT_EQ(first_stmt_dump("VISIBLE \"HAI\""), "(visible (yarn \"HAI\"))");
  EXPECT_EQ(first_stmt_dump("VISIBLE a \" \" b"),
            "(visible (var a) (yarn \" \") (var b))");
  EXPECT_EQ(first_stmt_dump("VISIBLE x!"), "(visible (var x) !)");
  EXPECT_EQ(first_stmt_dump("INVISIBLE \"err\""),
            "(invisible (yarn \"err\"))");
  EXPECT_EQ(first_stmt_dump("GIMMEH x"), "(gimmeh (var x))");
  EXPECT_EQ(first_stmt_dump("GIMMEH arr'Z 2"),
            "(gimmeh (index (var arr) (numbr 2)))");
}

TEST(ParseStmt, CastInPlace) {
  EXPECT_EQ(first_stmt_dump("x IS NOW A YARN"), "(isnowa (var x) YARN)");
}

TEST(ParseStmt, ORlyBlock) {
  std::string d = first_stmt_dump(
      "BOTH SAEM x AN 1, O RLY?\n"
      "YA RLY\n  VISIBLE \"one\"\n"
      "MEBBE BOTH SAEM x AN 2\n  VISIBLE \"two\"\n"
      "NO WAI\n  VISIBLE \"other\"\nOIC");
  // The leading expression is its own statement; O RLY? is the second.
  // first_stmt_dump returns the expression statement.
  EXPECT_EQ(d, "(expr (saem (var x) (numbr 1)))");
}

TEST(ParseStmt, ORlyStructure) {
  std::string src =
      "HAI 1.2\nO RLY?\nYA RLY\n  x R 1\nNO WAI\n  x R 2\nOIC\nKTHXBYE\n";
  auto p = parse_program(src);
  ASSERT_EQ(p.body.size(), 1u);
  EXPECT_EQ(lol::ast::dump(*p.body[0]),
            "(orly (ya (assign (var x) (numbr 1))) "
            "(nowai (assign (var x) (numbr 2))))");
}

TEST(ParseStmt, WtfStructure) {
  std::string src =
      "HAI 1.2\nWTF?\nOMG 1\n  VISIBLE \"a\"\n  GTFO\nOMG 2\n"
      "  VISIBLE \"b\"\nOMGWTF\n  VISIBLE \"c\"\nOIC\nKTHXBYE\n";
  auto p = parse_program(src);
  ASSERT_EQ(p.body.size(), 1u);
  EXPECT_EQ(lol::ast::dump(*p.body[0]),
            "(wtf (omg (numbr 1) (visible (yarn \"a\")) (gtfo)) "
            "(omg (numbr 2) (visible (yarn \"b\"))) "
            "(omgwtf (visible (yarn \"c\"))))");
}

TEST(ParseStmt, LoopForms) {
  EXPECT_EQ(first_stmt_dump("IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 3\n"
                            "  VISIBLE i\nIM OUTTA YR loop"),
            "(loop loop uppin:i til=(saem (var i) (numbr 3)) "
            "(visible (var i)))");
  EXPECT_EQ(first_stmt_dump("IM IN YR l NERFIN YR k WILE BIGGER k AN 0\n"
                            "  VISIBLE k\nIM OUTTA YR l"),
            "(loop l nerfin:k wile=(bigger (var k) (numbr 0)) "
            "(visible (var k)))");
  EXPECT_EQ(first_stmt_dump("IM IN YR forever\n  GTFO\nIM OUTTA YR forever"),
            "(loop forever (gtfo))");
}

TEST(ParseStmt, NestedLoopsWithSameLabel) {
  // The paper's n-body nests several loops all labeled `loop`.
  std::string src =
      "HAI 1.2\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 2\n"
      "  IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN 2\n"
      "    VISIBLE i\n"
      "  IM OUTTA YR loop\n"
      "IM OUTTA YR loop\n"
      "KTHXBYE\n";
  EXPECT_NO_THROW(parse_program(src));
}

TEST(ParseStmt, FunctionDefAndCall) {
  std::string src =
      "HAI 1.2\n"
      "HOW IZ I addtwo YR a AN YR b\n"
      "  FOUND YR SUM OF a AN b\n"
      "IF U SAY SO\n"
      "VISIBLE I IZ addtwo YR 1 AN YR 2 MKAY\n"
      "KTHXBYE\n";
  auto p = parse_program(src);
  ASSERT_EQ(p.body.size(), 2u);
  EXPECT_EQ(lol::ast::dump(*p.body[0]),
            "(func addtwo (a b) (found (sum (var a) (var b))))");
}

TEST(ParseStmt, CanHas) {
  EXPECT_EQ(first_stmt_dump("CAN HAS STDIO?"), "(canhas STDIO)");
}

TEST(ParseStmt, ParallelStatements) {
  EXPECT_EQ(first_stmt_dump("HUGZ"), "(hugz)");
  EXPECT_EQ(first_stmt_dump("IM SRSLY MESIN WIF x"), "(lock (var x))");
  EXPECT_EQ(first_stmt_dump("IM MESIN WIF x"), "(trylock (var x))");
  EXPECT_EQ(first_stmt_dump("DUN MESIN WIF x"), "(unlock (var x))");
  EXPECT_EQ(first_stmt_dump("IM MESIN WIF UR x"), "(trylock (var ur x))");
}

TEST(ParseStmt, TxtSingleStatement) {
  // Paper §VI.A: TXT MAH BFF next_pe, MAH array R UR array
  EXPECT_EQ(first_stmt_dump("TXT MAH BFF next_pe, MAH array R UR array"),
            "(txt (var next_pe) (assign (var mah array) (var ur array)))");
  // Paper §V: complex predicated statement.
  EXPECT_EQ(
      first_stmt_dump("TXT MAH BFF k, MAH x R SUM OF UR y AN UR z"),
      "(txt (var k) (assign (var mah x) (sum (var ur y) (var ur z))))");
}

TEST(ParseStmt, TxtBlockForm) {
  std::string d = first_stmt_dump(
      "TXT MAH BFF k AN STUFF\n  IM MESIN WIF UR x\n  x R SUM OF x AN 1\n"
      "  DUN MESIN WIF UR x\nTTYL");
  EXPECT_EQ(d,
            "(txt block (var k) (trylock (var ur x)) "
            "(assign (var x) (sum (var x) (numbr 1))) "
            "(unlock (var ur x)))");
}

TEST(ParseStmt, LockOnIndexedTargetLocksTheArray) {
  EXPECT_EQ(first_stmt_dump("IM SRSLY MESIN WIF arr'Z 0"),
            "(lock (var arr))");
}

TEST(ParseProgram, VersionIsOptional) {
  EXPECT_NO_THROW(parse_program("HAI\nKTHXBYE\n"));
  auto p = parse_program("HAI 1.2\nKTHXBYE\n");
  ASSERT_TRUE(p.version.has_value());
  EXPECT_DOUBLE_EQ(*p.version, 1.2);
}

TEST(ParseProgram, PrettyPrintRoundTrips) {
  std::string src =
      "HAI 1.2\n"
      "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 0.5\n"
      "WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8 AN IM SHARIN IT\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 8\n"
      "  a'Z i R PRODUKT OF i AN i\n"
      "IM OUTTA YR loop\n"
      "TXT MAH BFF 0, MAH x R UR x\n"
      "HUGZ\n"
      "VISIBLE \"done \" x\n"
      "KTHXBYE\n";
  auto p1 = parse_program(src);
  std::string printed = lol::ast::to_lolcode(p1);
  auto p2 = parse_program(printed);
  EXPECT_EQ(lol::ast::dump(p1), lol::ast::dump(p2)) << printed;
}

// -- errors ------------------------------------------------------------------------

TEST(ParseErrors, MissingKthxbye) {
  EXPECT_THROW(parse_program("HAI 1.2\nVISIBLE 1\n"), ParseError);
}

TEST(ParseErrors, MissingHai) {
  EXPECT_THROW(parse_program("VISIBLE 1\nKTHXBYE\n"), ParseError);
}

TEST(ParseErrors, ContentAfterKthxbye) {
  EXPECT_THROW(parse_program("HAI\nKTHXBYE\nVISIBLE 1\n"), ParseError);
}

TEST(ParseErrors, LoopLabelMismatch) {
  EXPECT_THROW(
      parse_program("HAI\nIM IN YR a\nGTFO\nIM OUTTA YR b\nKTHXBYE\n"),
      ParseError);
}

TEST(ParseErrors, TharIzWithoutArray) {
  EXPECT_THROW(parse_program("HAI\nI HAS A x ITZ A NUMBR AN THAR IZ 5\n"
                             "KTHXBYE\n"),
               ParseError);
}

TEST(ParseErrors, DanglingOic) {
  EXPECT_THROW(parse_program("HAI\nOIC\nKTHXBYE\n"), ParseError);
}

TEST(ParseErrors, VisibleNeedsArgs) {
  EXPECT_THROW(parse_program("HAI\nVISIBLE\nKTHXBYE\n"), ParseError);
}

TEST(ParseErrors, TxtWithoutStatement) {
  EXPECT_THROW(parse_program("HAI\nTXT MAH BFF 0\nKTHXBYE\n"), ParseError);
}

/// `VISIBLE` over `n` nested SUM OFs: n + 2 levels deep, counting the
/// statement, each SUM OF and the innermost literal.
std::string nested_sums(int n) {
  std::string src = "HAI 1.2\nVISIBLE ";
  for (int i = 0; i < n; ++i) src += "SUM OF 1 AN ";
  return src + "1\nKTHXBYE\n";
}

/// `n` nested O RLY? blocks around a VISIBLE: also n + 2 levels deep.
std::string nested_orlys(int n) {
  std::string src = "HAI 1.2\n";
  for (int i = 0; i < n; ++i) src += "O RLY?\nYA RLY\n";
  src += "VISIBLE 1\n";
  for (int i = 0; i < n; ++i) src += "OIC\n";
  return src + "KTHXBYE\n";
}

TEST(ParseErrors, NestingLimitIsExact) {
  const int limit = lol::parse::Parser::kMaxNesting;
  EXPECT_NO_THROW(parse_program(nested_sums(limit - 2)));
  EXPECT_NO_THROW(parse_program(nested_orlys(limit - 2)));
  try {
    parse_program(nested_sums(limit - 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    // Level limit + 1 is the left operand of the last SUM OF: "VISIBLE "
    // is 8 columns, each "SUM OF 1 AN " 12, and the operand sits 7 in.
    EXPECT_EQ(e.loc().line, 2u);
    EXPECT_EQ(e.loc().col, 9u + 12u * (limit - 2) + 7u);
    EXPECT_NE(std::string(e.what()).find("nest more than 1000 deep"),
              std::string::npos)
        << e.what();
  }
  try {
    parse_program(nested_orlys(limit - 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    // The operand of the VISIBLE inside the innermost YA RLY.
    EXPECT_EQ(e.loc().line, 2u + 2u * (limit - 1));
    EXPECT_EQ(e.loc().col, 9u);
  }
}

TEST(ParseErrors, ReportsLocation) {
  try {
    parse_program("HAI 1.2\nx R\nKTHXBYE\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.loc().line, 2u);
  }
}

}  // namespace
