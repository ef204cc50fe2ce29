package repro.core

import java.util.regex.{Pattern => JPattern}

/** The pattern language of §2.1: a pattern is a sequence of tokens drawn from
  * the generalization hierarchy (Fig. 4). Leaves are literals; intermediate
  * nodes are `<digit>`, `<upper>`, `<lower>`, `<letter>`, `<alnum>`, each
  * either fixed-length (`{n}`) or variable-length (`+`).
  *
  * Patterns compile to anchored Java regexes for validation-time matching and
  * serialize to a stable canonical `key` used as the offline-index key. A
  * human-readable `display` form matches the paper's notation.
  */
object Pattern {

  /** Generalized character class of a pattern token. */
  sealed abstract class GClass(val order: Int, val regex: String, val name: String, val alphabetBits: Double)
  object GClass {
    case object Digit  extends GClass(0, "[0-9]", "digit", 3.33)       // log2(10)
    case object Upper  extends GClass(1, "[A-Z]", "upper", 4.70)       // log2(26)
    case object Lower  extends GClass(2, "[a-z]", "lower", 4.70)
    case object Letter extends GClass(3, "[A-Za-z]", "letter", 5.70)   // log2(52)
    case object Alnum  extends GClass(4, "[A-Za-z0-9]", "alnum", 5.95) // log2(62)
    val all: Seq[GClass] = Seq(Digit, Upper, Lower, Letter, Alnum)
    def byName(n: String): GClass = all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown class $n"))
  }

  /** One token of a pattern. */
  sealed trait PTok {
    /** Regex fragment (unanchored). */
    def regex: String
    /** Human-readable form, paper style. */
    def display: String
    /** Specificity score used for tie-breaks and "most specific" profilers:
      * higher = narrower. Const > fixed-length > variable-length; narrower
      * classes beat wider ones.
      */
    def specificity: Int
  }

  /** A literal token (leaf of the hierarchy). */
  final case class ConstT(text: String) extends PTok {
    def regex: String = JPattern.quote(text)
    def display: String = text
    def specificity: Int = 100
  }

  /** `<cls>{n}` — exactly n characters of the class. */
  final case class FixLen(cls: GClass, n: Int) extends PTok {
    def regex: String = s"${cls.regex}{$n}"
    def display: String = s"<${cls.name}>{$n}"
    def specificity: Int = 50 + (GClass.all.size - cls.order)
  }

  /** `<cls>+` — one or more characters of the class. */
  final case class VarLen(cls: GClass) extends PTok {
    def regex: String = s"${cls.regex}+"
    def display: String = s"<${cls.name}>+"
    def specificity: Int = 10 + (GClass.all.size - cls.order)
  }

  /** A pattern: a non-empty token sequence. */
  final case class Pat(toks: Vector[PTok]) {
    /** Canonical index key (parseable, stable across JVMs). */
    lazy val key: String = {
      val sb = new java.lang.StringBuilder
      toks.foreach { t =>
        if (sb.length > 0) sb.append(SEP)
        serializeTok(t, sb)
      }
      sb.toString
    }
    /** Paper-style rendering. */
    def display: String = toks.map(_.display).mkString
    def specificity: Int = toks.map(_.specificity).sum
    def tokenLength: Int = toks.length
    @transient lazy val compiled: JPattern =
      JPattern.compile("^" + toks.map(_.regex).mkString + "$")
    /** Anchored match of a whole value. */
    def matches(v: String): Boolean = v != null && compiled.matcher(v).matches()
    override def toString: String = display
  }

  // Key format: tokens joined by SEP, each `C<text>`, `F<code><n>` or
  // `V<code>`. Class codes sort like the class names (alnum < digit < letter
  // < lower < upper), so keys order as they did with spelled-out names and
  // the key tie-break of `Fmdv.best` is unchanged. Inside constant text, SEP
  // and ESC are escaped as ESC ESC_SEP / ESC ESC, so any text round-trips.
  private[core] val SEP = '\u0001'
  private val ESC = '\u0002'
  private val ESC_SEP = '\u0003'

  private def code(c: GClass): Char = c match {
    case GClass.Alnum  => 'a'
    case GClass.Digit  => 'd'
    case GClass.Letter => 'e'
    case GClass.Lower  => 'o'
    case GClass.Upper  => 'u'
  }

  private def classOf(code: Char): GClass =
    GClass.all.find(c => this.code(c) == code).getOrElse(
      throw new IllegalArgumentException(s"unknown class code $code"))

  private def serializeTok(t: PTok, sb: java.lang.StringBuilder): Unit = t match {
    case ConstT(s) =>
      sb.append('C')
      var i = 0
      while (i < s.length) {
        s.charAt(i) match {
          case SEP => sb.append(ESC).append(ESC_SEP)
          case ESC => sb.append(ESC).append(ESC)
          case c   => sb.append(c)
        }
        i += 1
      }
    case FixLen(c, n) => sb.append('F').append(code(c)).append(n)
    case VarLen(c)    => sb.append('V').append(code(c))
  }

  private def parseTok(s: String): PTok = s.headOption match {
    case Some('C') =>
      val sb = new StringBuilder
      var i = 1
      while (i < s.length) {
        val c = s.charAt(i)
        if (c == ESC && i + 1 < s.length) {
          sb.append(if (s.charAt(i + 1) == ESC_SEP) SEP else ESC)
          i += 2
        } else { sb.append(c); i += 1 }
      }
      ConstT(sb.toString)
    case Some('F') if s.length > 2 => FixLen(classOf(s.charAt(1)), s.substring(2).toInt)
    case Some('V') if s.length == 2 => VarLen(classOf(s.charAt(1)))
    case _ => throw new IllegalArgumentException(s"bad pattern token '$s'")
  }

  /** Parse a canonical `key` back into a pattern. */
  def parse(key: String): Pat =
    Pat(key.split(SEP.toString, -1).toVector.map(parseTok))

  /** Token count of a serialized key without parsing (index analytics). */
  def tokenLengthOfKey(key: String): Int = key.count(_ == SEP) + 1

  /** Concatenate segment patterns (vertical-cut composition). */
  def concat(ps: Seq[Pat]): Pat = Pat(ps.flatMap(_.toks).toVector)
}
