// Lexer and parser of the HOMP kernel language.

#include <gtest/gtest.h>

#include "common/error.h"
#include "lang/parser.h"
#include "lang/token.h"

namespace homp::lang {
namespace {

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  auto toks = lex("y[i] += 2.5e-1 * x[i]; // comment\n i++");
  ASSERT_GE(toks.size(), 11u);
  EXPECT_EQ(toks[0].kind, Tok::kIdent);
  EXPECT_EQ(toks[0].text, "y");
  EXPECT_EQ(toks[1].kind, Tok::kLBracket);
  EXPECT_EQ(toks[4].kind, Tok::kPlusAssign);
  EXPECT_EQ(toks[5].kind, Tok::kNumber);
  EXPECT_DOUBLE_EQ(toks[5].number, 0.25);
  EXPECT_EQ(toks.back().kind, Tok::kEnd);
}

TEST(Lexer, SkipsTypeKeywordAndCommentTokens) {
  auto toks = lex("int i; /* block\ncomment */ double resid;");
  // 'int' and 'double' vanish: "i ; resid ;"
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].text, "i");
  EXPECT_EQ(toks[2].text, "resid");
}

TEST(Lexer, RejectsUnknownCharacters) {
  EXPECT_THROW(lex("a @ b"), ParseError);
  EXPECT_THROW(lex("/* unterminated"), ParseError);
}

TEST(Parser, AxpyShape) {
  auto k = parse_kernel(
      "#pragma omp parallel target device(0:*) map(tofrom: y[0:n])\n"
      "for (i = 0; i < n; i++) y[i] = y[i] + a * x[i];");
  ASSERT_EQ(k.pragmas.size(), 1u);
  EXPECT_EQ(k.outer.var, "i");
  EXPECT_EQ(k.outer.step, 1);
  ASSERT_EQ(k.outer.body.size(), 1u);
  const auto& s = *k.outer.body[0];
  EXPECT_EQ(s.kind, Stmt::Kind::kAssign);
  EXPECT_EQ(s.target->kind, Expr::Kind::kArrayRef);
  EXPECT_EQ(s.target->name, "y");
  EXPECT_FALSE(s.compound);
}

TEST(Parser, PragmaContinuationLines) {
  auto k = parse_kernel(
      "#pragma omp parallel target device(0:*) \\\n"
      "    map(to: x[0:n])\n"
      "#pragma omp parallel for distribute dist_schedule(target:[AUTO])\n"
      "for (i = 0; i < n; i++) x[i] = 0;");
  ASSERT_EQ(k.pragmas.size(), 2u);
  EXPECT_NE(k.pragmas[0].find("map(to: x[0:n])"), std::string::npos);
}

TEST(Parser, NestedLoopsAndGuards) {
  auto k = parse_kernel(
      "#pragma omp target device(*) map(tofrom: u[0:n][0:m])\n"
      "for (i = 0; i < n; i++) {\n"
      "  if (i == 0 || i == n - 1) continue;\n"
      "  for (j = 1; j < m - 1; j++) {\n"
      "    u[i][j] = 0.25 * (u[i-1][j] + u[i+1][j]);\n"
      "  }\n"
      "}");
  ASSERT_EQ(k.outer.body.size(), 2u);
  EXPECT_EQ(k.outer.body[0]->kind, Stmt::Kind::kIfContinue);
  EXPECT_EQ(k.outer.body[1]->kind, Stmt::Kind::kFor);
  const auto& inner = *k.outer.body[1]->loop;
  EXPECT_EQ(inner.var, "j");
  ASSERT_EQ(inner.body.size(), 1u);
  const auto& asg = *inner.body[0];
  ASSERT_EQ(asg.target->args.size(), 2u);
}

TEST(Parser, IncrementForms) {
  for (const char* incr : {"i++", "i += 1", "i = i + 1"}) {
    auto k = parse_kernel(std::string("#pragma omp target device(*)\n") +
                          "for (i = 0; i < 8; " + incr + ") x[i] = 1;");
    EXPECT_EQ(k.outer.step, 1) << incr;
  }
  auto k = parse_kernel(
      "#pragma omp target device(*)\nfor (i = 0; i < 8; i += 2) x[i] = 1;");
  EXPECT_EQ(k.outer.step, 2);
}

TEST(Parser, Malformed) {
  EXPECT_THROW(parse_kernel("for (i = 0; i < 8; i++) x[i] = 1;"),
               homp::Error);  // no pragma
  EXPECT_THROW(parse_kernel("#pragma omp target device(*)\n"
                            "for (i = 0; j < 8; i++) x[i] = 1;"),
               ParseError);  // condition on the wrong variable
  EXPECT_THROW(parse_kernel("#pragma omp target device(*)\n"
                            "for (i = 0; i < 8; i--) x[i] = 1;"),
               ParseError);  // unsupported decrement
  EXPECT_THROW(parse_kernel("#pragma omp target device(*)\n"
                            "for (i = 0; i < 8; i++) { x[i] = 1;"),
               ParseError);  // unterminated brace
  EXPECT_THROW(parse_kernel("#pragma omp target device(*)\n"
                            "for (i = 0; i < 8; i++) if (i) x[i] = 1;"),
               ParseError);  // only if(...)continue guards
  EXPECT_THROW(parse_kernel("#pragma omp target device(*)\n"
                            "for (i = 0; i < 8; i++) 3 = x[i];"),
               ParseError);  // bad assignment target
}

TEST(Parser, ExpressionPrecedence) {
  auto k = parse_kernel(
      "#pragma omp target device(*)\n"
      "for (i = 0; i < 4; i++) r = a + b * c - d / e;");
  const auto& v = *k.outer.body[0]->value;
  // ((a + (b*c)) - (d/e))
  ASSERT_EQ(v.kind, Expr::Kind::kBinary);
  EXPECT_EQ(v.op, BinOp::kSub);
  EXPECT_EQ(v.lhs->op, BinOp::kAdd);
  EXPECT_EQ(v.lhs->rhs->op, BinOp::kMul);
  EXPECT_EQ(v.rhs->op, BinOp::kDiv);
}

}  // namespace
}  // namespace homp::lang
