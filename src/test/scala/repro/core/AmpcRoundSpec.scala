package repro.core

import org.scalatest.funsuite.AnyFunSuite

class AmpcRoundSpec extends AnyFunSuite {

  for (master <- Seq("local", "local[4]", "local[4,3]"))
    test(s"a $master master is accepted") {
      AmpcRound.requireLocal(master)
    }

  for (master <- Seq("local-cluster[2,1,1024]", "spark://host:7077"))
    test(s"a $master master is rejected") {
      val e = intercept[IllegalArgumentException](AmpcRound.requireLocal(master))
      assert(e.getMessage.contains(master))
    }
}
