      PROGRAM REC
      COMMON /G/ N, A(100), B(100), C(100)
      N = 10
      DO 10 I = 1, 100
      A(I) = 0.0
   10 CONTINUE
      CALL WALK(5)
      WRITE(*,*) A(1), A(N)
      END
      SUBROUTINE WALK(K)
      COMMON /G/ N, A(100), B(100), C(100)
      DO 20 J = 1, N
      A(J) = A(J) + K
   20 CONTINUE
      IF (K .GT. 0) CALL STEP(K)
      END
      SUBROUTINE STEP(K)
      COMMON /G/ N, A(100), B(100), C(100)
      DO 30 J = 2, N
      A(J) = A(J-1) + 1.0
   30 CONTINUE
      DO 40 J = 1, N
      A(J) = A(J) * 0.5
   40 CONTINUE
      DO 50 J = 2, N
      B(J) = B(J-1) + 1.0
      C(J) = A(J) * 2.0
   50 CONTINUE
      CALL WALK(K - 1)
      END
